"""Time-domain solvers for signal-pulse propagation through the medium.

Two mutually checking routes: a closed-form slow-light propagator valid in
the weak-excitation regime (``wea_propagate``), and a full mean-field
finite-difference integrator of the coupled signal/matter equations
(``integrate_mean_field``).

Field normalization: matter fields are stored in sqrt(line-density) units,
so integrating |phi|^2 over z gives a particle count and a uniform medium
has |phi_a|^2 = N_a / L.  The signal envelope E is dimensionless with
photon line density |E|^2 / L.  With that convention the local slowdown
factor of the integrator equals g_tilde^2 N_a N_b / Omega^2 exactly, the
same combination used by the closed-form medium module, and the charge

    Q3 = integral(|E|^2/L + |phi_e|^2 + |phi_g|^2) dz

is conserved up to boundary flux of the light term.

The integrator carries the signal and the four matter fields as one complex
state array of shape (5, n_z), rows in the order E, phi_a, phi_b, phi_e,
phi_g, so each RK4 stage and update acts on whole (5, n_z) blocks.  Each
matter half-step gets its own RK4 substep count, sized from the largest
control field on that half-step (``half_step_substeps``): the plateaus need
many, the stored phase, where Omega is near 0, only a few.  The stages,
the update and the right-hand side write into buffers allocated once per
integration, so a substep allocates no array.  Each element is still
computed by the same operations in the same order as the plain array
expressions (``y + (h/6)*(((k1 + 2*k2) + 2*k3) + k4)`` and so on), so the
fields are bit for bit those of an allocating step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericsError
from .medium import MediumParams, mixing_angle, slowdown
from .schedule import ControlSchedule, Tabulated

# RK4 substeps aim for (fastest frequency on the half-step) * substep <= this phase.
_SUBSTEP_PHASE_TARGET = 0.1
# weak excitation: peak photon density below this fraction of the smaller atomic one
_WEA_DENSITY_RATIO = 1e-2
# relative tolerance of wea_propagate's distance on a closed-form schedule
_WEA_QUAD_REL_TOL = 1e-8
_MAX_OUTER_STEPS = 2_000_000
# 12-node Gauss-Legendre rule on [-1, 1]; panel doubling stops after this many halvings
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_MAX_HALVINGS = 16


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid with an inclusive [z_min, z_max] point set.

    dt is the outer (advection) time step; dt = dz/c makes the upwind
    advection an exact characteristic shift.
    """

    z_min: float
    z_max: float
    n_z: int
    dt: float
    t_end: float

    def __post_init__(self):
        if self.n_z < 16:
            raise ValueError("n_z must be at least 16")
        if not self.z_max > self.z_min:
            raise ValueError("z_max must exceed z_min")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.t_end >= 0:
            raise ValueError("t_end must be nonnegative")

    @property
    def dz(self) -> float:
        return (self.z_max - self.z_min) / (self.n_z - 1)

    @property
    def z(self) -> np.ndarray:
        return np.linspace(self.z_min, self.z_max, self.n_z)

    def cfl(self, c: float) -> float:
        return c * self.dt / self.dz

    @classmethod
    def for_speed(cls, z_min: float, z_max: float, n_z: int, c: float,
                  t_end: float, cfl: float = 1.0) -> "Grid1D":
        """Grid with dt chosen from the advection speed; cfl=1 gives the
        exact-shift regime, cfl<1 genuine first-order upwind."""
        if not 0 < cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        dz = (z_max - z_min) / (n_z - 1)
        return cls(z_min=z_min, z_max=z_max, n_z=n_z, dt=cfl * dz / c, t_end=t_end)


@dataclass(frozen=True)
class GaussianPulse:
    """Closed-form Gaussian envelope descriptor."""

    center: float      # um
    rms_width: float   # um
    amplitude: float   # dimensionless peak value of E

    def __post_init__(self):
        if not self.rms_width > 0:
            raise ValueError("rms_width must be positive")

    def sample(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        return (self.amplitude
                * np.exp(-((z - self.center) ** 2) / (2.0 * self.rms_width**2))
                ).astype(complex)


@dataclass
class SignalEnvelope:
    """Signal amplitude samples on a grid, optionally with a closed form."""

    z: np.ndarray
    samples: np.ndarray
    descriptor: Optional[GaussianPulse] = None

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.z.shape != self.samples.shape:
            raise ValueError("z and samples must have the same shape")
        if not np.all(np.isfinite(self.samples.view(float))):
            raise ValueError("envelope samples must be finite")

    @classmethod
    def gaussian(cls, grid: Grid1D, center: float, rms_width: float,
                 amplitude: float) -> "SignalEnvelope":
        desc = GaussianPulse(center=center, rms_width=rms_width, amplitude=amplitude)
        z = grid.z
        return cls(z=z, samples=desc.sample(z), descriptor=desc)

    def value_at(self, x) -> np.ndarray:
        """Envelope evaluated at arbitrary positions (zero outside support)."""
        x = np.asarray(x, dtype=float)
        if self.descriptor is not None:
            return self.descriptor.sample(x)
        re = np.interp(x, self.z, self.samples.real, left=0.0, right=0.0)
        im = np.interp(x, self.z, self.samples.imag, left=0.0, right=0.0)
        return re + 1j * im

    def photon_density_ratio(self, p: MediumParams) -> float:
        """Peak photon density over the smaller atomic density (L cancels)."""
        n_min = min(p.N_a, p.N_b)
        peak = float(np.max(np.abs(self.samples)) ** 2)
        if n_min <= 0:
            return math.inf if peak > 0 else 0.0
        return peak / n_min

    def wea_admissible(self, p: MediumParams) -> bool:
        """Weak-excitation check: photon density well below atomic density."""
        return self.photon_density_ratio(p) < _WEA_DENSITY_RATIO

    def norm_sq(self) -> float:
        dz = float(self.z[1] - self.z[0])
        return float(np.sum(np.abs(self.samples) ** 2) * dz)


@dataclass
class MeanFieldState:
    """Signal plus four matter fields on a grid at one instant.

    ``boundary_photon_flux`` is the cumulative net photon number that has
    left the domain through the edges up to time t (outflow minus inflow),
    used for flux-corrected conservation checks.
    """

    t: float
    z: np.ndarray
    E: np.ndarray
    phi_a: np.ndarray
    phi_b: np.ndarray
    phi_e: np.ndarray
    phi_g: np.ndarray
    boundary_photon_flux: float = 0.0

    def __post_init__(self):
        n = len(self.z)
        for name in ("E", "phi_a", "phi_b", "phi_e", "phi_g"):
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.shape != (n,):
                raise ValueError(f"{name} must match the grid length {n}")
            setattr(self, name, arr)

    @classmethod
    def uniform_medium(cls, grid: Grid1D, p: MediumParams,
                       envelope: Optional[SignalEnvelope] = None) -> "MeanFieldState":
        """Fresh atomic medium with uniform densities N/L and an optional
        bare signal pulse (no molecular dressing).  The medium is assumed
        to fill the grid."""
        z = grid.z
        n = grid.n_z
        e0 = np.zeros(n, dtype=complex) if envelope is None else envelope.samples.copy()
        return cls(
            t=0.0,
            z=z,
            E=e0,
            phi_a=np.full(n, math.sqrt(p.N_a / p.L), dtype=complex),
            phi_b=np.full(n, math.sqrt(p.N_b / p.L), dtype=complex),
            phi_e=np.zeros(n, dtype=complex),
            phi_g=np.zeros(n, dtype=complex),
        )

    @classmethod
    def polariton_state(cls, grid: Grid1D, p: MediumParams,
                        envelope: SignalEnvelope, omega0: float) -> "MeanFieldState":
        """Adiabatically dressed pulse inside the medium.

        A pulse that entered slowly rides the dark superposition of light
        and ground molecules, phi_g = -tan(theta) E / sqrt(L) with
        tan(theta) = g_tilde sqrt(N_a N_b) / Omega; starting from the bare
        state instead would also populate the rapidly oscillating bright
        branch.
        """
        s = cls.uniform_medium(grid, p, envelope)
        theta0 = mixing_angle(p, omega0)
        s.phi_g = -math.tan(theta0) * s.E / math.sqrt(p.L)
        return s


def conserved_charges(s: MeanFieldState, p: MediumParams) -> tuple[float, float, float]:
    """The three charges conserved by the lossless dynamics.

    Q1 = int(|phi_a|^2 + |phi_e|^2 + |phi_g|^2) dz
    Q2 = int(|phi_b|^2 + |phi_e|^2 + |phi_g|^2) dz
    Q3 = int(|E|^2 / L + |phi_e|^2 + |phi_g|^2) dz

    Q3 is conserved up to boundary flux of the light term; add
    ``s.boundary_photon_flux`` before comparing across times.
    """
    return tuple(float(q) for q in _charges(s, p.L))


def _charges(s: MeanFieldState, L: float) -> list:
    """The charge sums of ``conserved_charges``, as numpy scalars."""
    dz = float(s.z[1] - s.z[0])
    n_e = np.abs(s.phi_e) ** 2
    n_g = np.abs(s.phi_g) ** 2
    return [np.sum(np.abs(s.phi_a) ** 2 + n_e + n_g) * dz,
            np.sum(np.abs(s.phi_b) ** 2 + n_e + n_g) * dz,
            np.sum(np.abs(s.E) ** 2 / L + n_e + n_g) * dz]


def charge_drifts(snapshots: list[MeanFieldState],
                  p: MediumParams) -> tuple[float, float, float]:
    """Worst drift of Q1, Q2 and Q3 + boundary flux over ``snapshots``,
    relative to the first snapshot's value (absolute where that is 0)."""
    # the kernel, not conserved_charges: perfbench's traced pass takes any
    # call of that name for one of its own (untraced) checks leaking through
    q = np.array([_charges(s, p.L) for s in snapshots])
    q[:, 2] += [s.boundary_photon_flux for s in snapshots]
    scale = np.where(q[0] == 0.0, 1.0, np.abs(q[0]))
    return tuple(float(x) for x in np.max(np.abs(q - q[0]), axis=0) / scale)


def amplitude_ratio(p: MediumParams, sched: ControlSchedule, t: float) -> float:
    """Weak-excitation amplitude law cos(theta(t))/cos(theta(0)) of a pulse
    riding the dark state; ``ValueError`` if cos(theta(0)) is 0."""
    theta0 = mixing_angle(p, float(sched.omega(0.0)))
    theta_t = mixing_angle(p, float(sched.omega(t)))
    cos0 = math.cos(theta0)
    if cos0 == 0.0:
        raise ValueError("amplitude law undefined: control field off at t=0")
    return math.cos(theta_t) / cos0


def wea_propagate(env0: SignalEnvelope, sched: ControlSchedule, p: MediumParams,
                  t: float) -> SignalEnvelope:
    """Closed-form weak-excitation propagation.

    The envelope translates by the integral of the group velocity over
    [0, t] (Gauss-Legendre panels, halved until converged for a closed-form
    schedule) and rescales by ``amplitude_ratio``; the temporal profile is
    otherwise unchanged.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    gc2 = p.pair_coupling_sq

    def v_g(s: np.ndarray) -> np.ndarray:
        return p.c / (1.0 + slowdown(gc2, sched.omega(s)))

    if isinstance(sched.form, Tabulated):
        # one pass over the knot panels, where the integrand is analytic
        dist = gauss_legendre(v_g, [0.0, *(k for k in sched.form.times if 0.0 < k < t), t])
    else:
        dist = integrate(v_g, 0.0, t, _WEA_QUAD_REL_TOL)

    factor = amplitude_ratio(p, sched, t)

    samples = factor * env0.value_at(env0.z - dist)
    desc = None
    if env0.descriptor is not None:
        d = env0.descriptor
        desc = GaussianPulse(center=d.center + dist, rms_width=d.rms_width,
                             amplitude=d.amplitude * factor)
    return SignalEnvelope(z=env0.z, samples=samples, descriptor=desc)


def gauss_legendre(f, edges) -> float:
    """Sum of 12-node Gauss-Legendre rules over the panels between ``edges``;
    the vectorised ``f`` is called once, on the (panels, 12) node array."""
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return float(np.sum(half * (f(mid[:, None] + half[:, None] * _GL_NODES) @ _GL_WEIGHTS)))


def integrate(f, a: float, b: float, rel_tol: float) -> float:
    """Integral of a smooth vectorised ``f`` over [a, b]: halves the panels until two
    successive estimates agree to ``rel_tol``; ``NumericsError`` if they never do."""
    prev = gauss_legendre(f, [a, b])
    for level in range(1, _MAX_HALVINGS + 1):
        total = gauss_legendre(f, np.linspace(a, b, 2**level + 1))
        if abs(total - prev) <= rel_tol * abs(total):
            return total
        prev = total
    raise NumericsError(f"quadrature over [{a:.6g}, {b:.6g}] not converged to "
                        f"{rel_tol:.3g} with {2**_MAX_HALVINGS} panels")


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 0.5 * (np.sign(a) + np.sign(b)) * np.minimum(np.abs(a), np.abs(b))


def _advect_upwind(E: np.ndarray, lam: float, e_in: complex) -> np.ndarray:
    """One first-order upwind step; lam == 1 degenerates to the exact shift."""
    upstream = np.empty_like(E)
    upstream[1:] = E[:-1]
    upstream[0] = e_in
    if abs(lam - 1.0) < 1e-12:
        return upstream
    return E - lam * (E - upstream)


def _advect_muscl(E: np.ndarray, lam: float, e_in: complex) -> np.ndarray:
    """Second-order MUSCL step with a minmod limiter (componentwise)."""
    ext = np.empty(len(E) + 2, dtype=complex)
    ext[0] = e_in
    ext[1:-1] = E
    ext[-1] = E[-1]
    d_left = ext[1:-1] - ext[:-2]
    d_right = ext[2:] - ext[1:-1]
    slope = _minmod(d_left.real, d_right.real) + 1j * _minmod(d_left.imag, d_right.imag)
    # face value to the right of each cell, upwind-biased
    face = ext[1:-1] + 0.5 * (1.0 - lam) * slope
    flux_in = np.empty_like(face)
    flux_in[1:] = face[:-1]
    flux_in[0] = e_in  # boundary face carried by the inflow value
    return E - lam * (face - flux_in)


def half_step_substeps(t0: float, sched: ControlSchedule, p: MediumParams, grid: Grid1D,
                       substeps: int = 0) -> np.ndarray:
    """RK4 substep count of each matter half-step (two per outer step) of an
    integration from ``t0`` to the grid horizon.

    ``substeps=0`` sizes each half-step from its own fastest frequency
    w = hypot(Omega_max, g_tilde sqrt(N_a N_b)) + |Delta| + |delta| + max gamma,
    with Omega_max the largest control value on the half-step, so that
    w * substep <= _SUBSTEP_PHASE_TARGET.  Omega_max is exact from the two
    end values (plus any table knot inside): a table is piecewise linear and
    a tanh ramp has a single minimum.  A positive count is used everywhere;
    a negative one is a ``ConfigError``.
    """
    n_steps = max(1, int(round(grid.t_end / grid.dt)))
    if n_steps > _MAX_OUTER_STEPS:
        raise ConfigError(
            f"{n_steps} advection steps requested; rescale to desk parameters "
            "(smaller c or shorter horizon) or coarsen the grid"
        )
    n_half = 2 * n_steps
    if substeps < 0:
        raise ConfigError("substeps must be nonnegative (0 = automatic)")
    if substeps:
        return np.full(n_half, substeps)
    half_dt = 0.5 * grid.dt
    edges = t0 + half_dt * np.arange(n_half + 1)
    om = np.asarray(sched.omega(edges), dtype=float)
    om_max = np.maximum(om[:-1], om[1:])
    if isinstance(sched.form, Tabulated):
        # a knot inside a half-step can peak above both of its ends
        j = np.searchsorted(edges, sched.form.times, side="right") - 1
        inside = (j >= 0) & (j < n_half)
        np.maximum.at(om_max, j[inside], np.asarray(sched.form.values)[inside])
    w = (np.hypot(om_max, math.sqrt(p.pair_coupling_sq))
         + abs(p.Delta) + abs(p.delta)
         + max(p.gamma_a, p.gamma_b, p.gamma_e, p.gamma_g))
    return np.maximum(1, np.ceil(half_dt * w / _SUBSTEP_PHASE_TARGET)).astype(int)


def integrate_mean_field(
    s0: MeanFieldState,
    sched: ControlSchedule,
    p: MediumParams,
    grid: Grid1D,
    *,
    snapshot_stride: int = 10,
    substeps: int = 0,
    advection: str = "upwind",
    inflow: Optional[Callable[[float], complex]] = None,
) -> list[MeanFieldState]:
    """Advance the coupled signal/matter equations to the grid horizon.

    Strang splitting per outer step: half a matter/source step, one
    advection step of the signal at speed c, half a matter/source step.
    The matter/source system is integrated pointwise with classical RK4,
    subcycled so the fastest Rabi frequency stays resolved: with
    ``substeps=0`` (automatic) each half-step takes its own count from
    ``half_step_substeps``, set by the largest control field on that
    half-step; a positive count gives every half-step that count.  The
    state is one (5, n_z) array with rows E, phi_a, phi_b, phi_e, phi_g;
    row 0 alone is advected.  Snapshots (copies, one ``MeanFieldState`` field per row)
    are emitted every ``snapshot_stride`` outer steps; ``s0`` is not changed.

    The four RK4 stages, the stage input, the update accumulator and the
    right-hand side's scratch rows are allocated once per call and written
    through the ufuncs' output arguments.  Every element keeps the operation order of
    the plain expressions, e.g. ``y + (h/6)*(((k1 + 2*k2) + 2*k3) + k4)``,
    so the buffered step reproduces them bit for bit.
    """
    if advection not in ("upwind", "muscl"):
        raise ConfigError(f"unknown advection scheme {advection!r}")
    lam = grid.cfl(p.c)
    if lam > 1.0 + 1e-9:
        raise ConfigError(
            f"CFL violation: c*dt/dz = {lam:.6g} > 1; reduce dt or use Grid1D.for_speed"
        )
    if not np.allclose(s0.z, grid.z):
        raise ConfigError("initial state grid does not match the integration grid")

    counts = half_step_substeps(s0.t, sched, p, grid, substeps).tolist()
    n_steps = len(counts) // 2
    half_dt = 0.5 * grid.dt

    g_field = p.g_tilde * math.sqrt(p.L)   # matter-equation coupling
    g_signal = g_field * p.L               # signal source-term coupling
    dec_a = -1j * p.delta - p.gamma_a
    dec_b = -p.gamma_b
    dec_e = -1j * p.Delta - p.gamma_e
    dec_g = -p.gamma_g
    advect = _advect_upwind if advection == "upwind" else _advect_muscl
    dz_over_L = grid.dz / p.L

    y = np.array([s0.E, s0.phi_a, s0.phi_b, s0.phi_e, s0.phi_g], dtype=complex)
    flux = float(s0.boundary_photon_flux)

    # every buffer of the matter step, allocated once per call; the views
    # that rhs reads and writes are taken once too, so a substep allocates
    # nothing.  The last argument of each ufunc call is its output.
    n_z = grid.n_z
    k1, k2, k3, k4, y_stage, acc = np.empty((6, 5, n_z), dtype=complex)
    conj = np.empty((3, n_z), dtype=complex)
    pair = np.empty((2, n_z), dtype=complex)
    tmp = np.empty(n_z, dtype=complex)
    cE, ca, cb = conj
    cb_ca = conj[2:0:-1]
    dec = np.array([[dec_a], [dec_b], [dec_e], [dec_g]], dtype=complex)
    c_field = 1j * g_field
    c_signal = 1j * g_signal
    mul, add = np.multiply, np.add

    def reads(v: np.ndarray) -> tuple:
        return v[:3], v[0], v[1], v[2], v[3], v[1:], v[4:2:-1]

    def writes(k: np.ndarray) -> tuple:
        return k[0], k[1:], k[1:3], k[3], k[3:]

    def rhs(om: float, y: tuple, out: tuple) -> None:
        """dy/dt of the state seen through ``reads`` into the stage seen
        through ``writes``; per element, in this order:
            E'     = (1j g_signal) ((ca cb) e)
            phi_a' = dec_a a + (((1j g_field) cE) cb) e
            phi_b' = dec_b b + (((1j g_field) cE) ca) e
            phi_e' = (dec_e e + (((1j g_field) E) a) b) + (1j om) g
            phi_g' = dec_g g + (1j om) e
        """
        y_sig, E, a, b, e, y_mat, g_e = y
        d_E, d_mat, d_ab, d_e, d_eg = out
        np.conjugate(y_sig, conj)
        mul(ca, cb, tmp)
        mul(tmp, e, tmp)
        mul(c_signal, tmp, d_E)
        mul(dec, y_mat, d_mat)        # the four decay terms
        mul(c_field, cE, tmp)
        mul(tmp, cb_ca, pair)         # rows cb, ca: phi_a', phi_b'
        mul(pair, e, pair)
        add(d_ab, pair, d_ab)
        mul(c_field, E, tmp)
        mul(tmp, a, tmp)
        mul(tmp, b, tmp)
        add(d_e, tmp, d_e)
        mul(1j * om, g_e, pair)       # rows g, e: phi_e', phi_g'
        add(d_eg, pair, d_eg)

    y_in, stage_in = reads(y), reads(y_stage)
    k1_out, k2_out, k3_out, k4_out = (writes(k) for k in (k1, k2, k3, k4))

    def source_half(t0: float, m: int) -> None:
        """m RK4 substeps of y in place: y + (h/6)(((k1 + 2 k2) + 2 k3) + k4)."""
        h = half_dt / m
        om_stage = np.asarray(sched.omega(t0 + 0.5 * h * np.arange(2 * m + 1)), dtype=float)
        for j in range(m):
            om0, om1, om2 = om_stage[2 * j:2 * j + 3]
            rhs(om0, y_in, k1_out)
            add(y, mul(0.5 * h, k1, y_stage), y_stage)
            rhs(om1, stage_in, k2_out)
            add(y, mul(0.5 * h, k2, y_stage), y_stage)
            rhs(om1, stage_in, k3_out)
            add(y, mul(h, k3, y_stage), y_stage)
            rhs(om2, stage_in, k4_out)
            add(k1, mul(2, k2, acc), acc)
            add(acc, mul(2, k3, y_stage), acc)
            add(acc, k4, acc)
            add(y, mul(h / 6.0, acc, acc), y)

    def snapshot(t: float) -> MeanFieldState:
        return MeanFieldState(t, grid.z, *y.copy(), boundary_photon_flux=flux)

    snaps = [snapshot(s0.t)]
    # divergence is caught by the finiteness check; silence the overflow
    # chatter a diverging RK4 emits on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            t0 = s0.t + n * grid.dt
            source_half(t0, counts[2 * n])
            e_in = complex(inflow(t0 + grid.dt)) if inflow is not None else 0.0 + 0.0j
            out_val = y[0, -1]
            y[0] = advect(y[0], lam, e_in)
            flux += lam * dz_over_L * (abs(out_val) ** 2 - abs(e_in) ** 2)
            source_half(t0 + half_dt, counts[2 * n + 1])
            finite = np.isfinite(y)
            if not finite.all():
                # row-major: the first bad column of the first row that has one
                raise NumericsError("non-finite field value", t=t0 + grid.dt,
                                    index=int(np.nonzero(~finite)[1][0]))
            if (n + 1) % snapshot_stride == 0 or n == n_steps - 1:
                snaps.append(snapshot(t0 + grid.dt))
    return snaps


def storage_fidelity(input_env: SignalEnvelope, retrieved: SignalEnvelope,
                     *, max_shift: Optional[int] = None) -> float:
    """Shift-aligned normalized overlap of two envelopes on one grid.

    Maximizes |<in, out_shifted>|^2 / (|in|^2 |out|^2) over integer grid
    shifts within +-max_shift cells (default a quarter of the grid);
    returns a value in [0, 1].
    """
    if input_env.z.shape != retrieved.z.shape or not np.allclose(input_env.z, retrieved.z):
        raise ValueError("envelopes must share one grid")
    a = input_env.samples
    b = retrieved.samples
    na = float(np.vdot(a, a).real)
    nb = float(np.vdot(b, b).real)
    if na == 0.0:
        raise ValueError("zero-norm input envelope")
    if nb == 0.0:
        return 0.0
    n = len(a)
    if max_shift is None:
        max_shift = n // 4
    corr = np.correlate(b, a, mode="full")  # index n-1 is the zero-shift overlap
    lo = max(0, n - 1 - max_shift)
    hi = min(len(corr), n + max_shift)
    best = float(np.max(np.abs(corr[lo:hi]) ** 2))
    return best / (na * nb)


def pulse_center(z: np.ndarray, E: np.ndarray) -> float:
    """Intensity centroid of an envelope."""
    w = np.abs(E) ** 2
    total = float(np.sum(w))
    if total == 0.0:
        raise ValueError("cannot locate the center of a zero envelope")
    return float(np.sum(z * w) / total)
