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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate as _sciint

from .errors import ConfigError, NumericsError
from .medium import MediumParams, group_velocity, mixing_angle
from .schedule import ControlSchedule, Tabulated

# RK4 substeps aim for (fastest local frequency) * substep <= this phase.
_SUBSTEP_PHASE_TARGET = 0.1
_MAX_OUTER_STEPS = 2_000_000


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
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < 0:
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
        if self.rms_width <= 0:
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

    def wea_admissible(self, p: MediumParams, limit: float = 1e-2) -> bool:
        """Weak-excitation check: photon density well below atomic density."""
        return self.photon_density_ratio(p) < limit

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

    def copy(self) -> "MeanFieldState":
        return MeanFieldState(
            t=self.t, z=self.z,
            E=self.E.copy(), phi_a=self.phi_a.copy(), phi_b=self.phi_b.copy(),
            phi_e=self.phi_e.copy(), phi_g=self.phi_g.copy(),
            boundary_photon_flux=self.boundary_photon_flux,
        )


def conserved_charges(s: MeanFieldState, p: MediumParams) -> tuple[float, float, float]:
    """The three charges conserved by the lossless dynamics.

    Q1 = int(|phi_a|^2 + |phi_e|^2 + |phi_g|^2) dz
    Q2 = int(|phi_b|^2 + |phi_e|^2 + |phi_g|^2) dz
    Q3 = int(|E|^2 / L + |phi_e|^2 + |phi_g|^2) dz

    Q3 is conserved up to boundary flux of the light term; add
    ``s.boundary_photon_flux`` before comparing across times.
    """
    dz = float(s.z[1] - s.z[0])
    n_e = np.abs(s.phi_e) ** 2
    n_g = np.abs(s.phi_g) ** 2
    q1 = float(np.sum(np.abs(s.phi_a) ** 2 + n_e + n_g) * dz)
    q2 = float(np.sum(np.abs(s.phi_b) ** 2 + n_e + n_g) * dz)
    q3 = float(np.sum(np.abs(s.E) ** 2 / p.L + n_e + n_g) * dz)
    return (q1, q2, q3)


def wea_propagate(env0: SignalEnvelope, sched: ControlSchedule, p: MediumParams,
                  t: float, *, quad_rel_tol: float = 1e-8) -> SignalEnvelope:
    """Closed-form weak-excitation propagation.

    The envelope translates by the integral of the group velocity over
    [0, t] (adaptive quadrature) and rescales by cos(theta(t))/cos(theta(0));
    the temporal profile is otherwise unchanged.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    gc2 = p.pair_coupling_sq

    def v_g(s: float) -> float:
        om = float(sched.omega(s))
        if om > 0.0:
            return group_velocity(p, om)
        return 0.0 if gc2 > 0 else p.c

    if t > 0:
        dist = _integrate_velocity(v_g, sched, t, quad_rel_tol)
    else:
        dist = 0.0

    theta0 = mixing_angle(p, float(sched.omega(0.0)))
    theta_t = mixing_angle(p, float(sched.omega(t)))
    cos0 = math.cos(theta0)
    if cos0 == 0.0:
        raise ValueError("amplitude law undefined: control field off at t=0")
    factor = math.cos(theta_t) / cos0

    samples = factor * env0.value_at(env0.z - dist)
    desc = None
    if env0.descriptor is not None:
        d = env0.descriptor
        desc = GaussianPulse(center=d.center + dist, rms_width=d.rms_width,
                             amplitude=d.amplitude * factor)
    return SignalEnvelope(z=env0.z, samples=samples, descriptor=desc)


def _integrate_velocity(v_g, sched: ControlSchedule, t: float, rel_tol: float) -> float:
    """Integral of the group velocity over [0, t].

    Smooth closed-form schedules go through adaptive quadrature; tabulated
    schedules are integrated with fixed Gauss-Legendre panels between the
    interpolation knots, where the integrand is analytic.
    """
    if isinstance(sched.form, Tabulated):
        knots = [0.0] + [float(k) for k in sched.form.times if 0.0 < k < t] + [t]
        nodes, weights = np.polynomial.legendre.leggauss(12)
        total = 0.0
        for lo, hi in zip(knots[:-1], knots[1:]):
            half = 0.5 * (hi - lo)
            mid = 0.5 * (hi + lo)
            total += half * sum(w * v_g(mid + half * x) for x, w in zip(nodes, weights))
        return total
    dist, _ = _sciint.quad(v_g, 0.0, t, epsrel=rel_tol, limit=400)
    return dist


def _minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 0.5 * (np.sign(a) + np.sign(b)) * np.minimum(np.abs(a), np.abs(b))


def _advect_upwind(E: np.ndarray, lam: float, e_in: complex) -> tuple[np.ndarray, complex]:
    """One first-order upwind step; lam == 1 degenerates to the exact shift.

    Returns the new array and the pre-step value at the outflow edge.
    """
    out_val = E[-1]
    upstream = np.empty_like(E)
    upstream[1:] = E[:-1]
    upstream[0] = e_in
    if abs(lam - 1.0) < 1e-12:
        return upstream, out_val
    return E - lam * (E - upstream), out_val


def _advect_muscl(E: np.ndarray, lam: float, e_in: complex) -> tuple[np.ndarray, complex]:
    """Second-order MUSCL step with a minmod limiter (componentwise)."""
    out_val = E[-1]
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
    return E - lam * (face - flux_in), out_val


def _auto_substeps(p: MediumParams, sched: ControlSchedule, t_total: float,
                   half_dt: float) -> int:
    ts = np.linspace(0.0, max(t_total, half_dt), 4097)
    om_max = float(np.max(sched.omega(ts)))
    w_max = (math.hypot(om_max, math.sqrt(p.pair_coupling_sq))
             + abs(p.Delta) + abs(p.delta)
             + max(p.gamma_a, p.gamma_b, p.gamma_e, p.gamma_g))
    if w_max <= 0:
        return 1
    return max(1, math.ceil(half_dt * w_max / _SUBSTEP_PHASE_TARGET))


def integrate_mean_field(
    s0: MeanFieldState,
    sched: ControlSchedule,
    p: MediumParams,
    grid: Grid1D,
    *,
    snapshot_stride: int = 10,
    substeps: int | str = "auto",
    advection: str = "upwind",
    inflow: Optional[Callable[[float], complex]] = None,
) -> list[MeanFieldState]:
    """Advance the coupled signal/matter equations to the grid horizon.

    Strang splitting per outer step: half a matter/source step, one
    advection step of the signal at speed c, half a matter/source step.
    The matter/source system is integrated pointwise with classical RK4,
    subcycled so the fastest Rabi frequency stays resolved.  Snapshots
    (copies) are emitted every ``snapshot_stride`` outer steps.
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

    n_steps = max(1, int(round(grid.t_end / grid.dt)))
    if n_steps > _MAX_OUTER_STEPS:
        raise ConfigError(
            f"{n_steps} advection steps requested; rescale to desk parameters "
            "(smaller c or shorter horizon) or coarsen the grid"
        )

    half_dt = 0.5 * grid.dt
    if substeps == "auto":
        m = _auto_substeps(p, sched, n_steps * grid.dt, half_dt)
    else:
        m = int(substeps)
        if m < 1:
            raise ConfigError("substeps must be a positive integer")

    g_field = p.g_tilde * math.sqrt(p.L)   # matter-equation coupling
    g_signal = g_field * p.L               # signal source-term coupling
    dec_a = -1j * p.delta - p.gamma_a
    dec_b = -p.gamma_b
    dec_e = -1j * p.Delta - p.gamma_e
    dec_g = -p.gamma_g
    advect = _advect_upwind if advection == "upwind" else _advect_muscl
    dz_over_L = grid.dz / p.L

    E = s0.E.astype(complex).copy()
    a = s0.phi_a.astype(complex).copy()
    b = s0.phi_b.astype(complex).copy()
    e = s0.phi_e.astype(complex).copy()
    g = s0.phi_g.astype(complex).copy()
    flux = float(s0.boundary_photon_flux)

    def rhs(om: float, E, a, b, e, g):
        hyb = np.conj(a) * np.conj(b) * e
        dE = 1j * g_signal * hyb
        conjE = np.conj(E)
        da = dec_a * a + 1j * g_field * conjE * np.conj(b) * e
        db = dec_b * b + 1j * g_field * conjE * np.conj(a) * e
        de = dec_e * e + 1j * g_field * E * a * b + 1j * om * g
        dg = dec_g * g + 1j * om * e
        return dE, da, db, de, dg

    def source_half(t0: float):
        nonlocal E, a, b, e, g
        h = half_dt / m
        om_stage = np.asarray(sched.omega(t0 + 0.5 * h * np.arange(2 * m + 1)), dtype=float)
        for j in range(m):
            om0 = om_stage[2 * j]
            om1 = om_stage[2 * j + 1]
            om2 = om_stage[2 * j + 2]
            k1 = rhs(om0, E, a, b, e, g)
            k2 = rhs(om1, E + 0.5 * h * k1[0], a + 0.5 * h * k1[1],
                     b + 0.5 * h * k1[2], e + 0.5 * h * k1[3], g + 0.5 * h * k1[4])
            k3 = rhs(om1, E + 0.5 * h * k2[0], a + 0.5 * h * k2[1],
                     b + 0.5 * h * k2[2], e + 0.5 * h * k2[3], g + 0.5 * h * k2[4])
            k4 = rhs(om2, E + h * k3[0], a + h * k3[1],
                     b + h * k3[2], e + h * k3[3], g + h * k3[4])
            E = E + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            a = a + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            b = b + (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
            e = e + (h / 6.0) * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
            g = g + (h / 6.0) * (k1[4] + 2 * k2[4] + 2 * k3[4] + k4[4])

    def snapshot(t: float) -> MeanFieldState:
        return MeanFieldState(
            t=t, z=grid.z, E=E.copy(), phi_a=a.copy(), phi_b=b.copy(),
            phi_e=e.copy(), phi_g=g.copy(), boundary_photon_flux=flux,
        )

    def check_finite(t: float):
        for arr in (E, a, b, e, g):
            if not np.all(np.isfinite(arr.view(float))):
                bad = np.nonzero(~np.isfinite(arr.view(float)))[0]
                raise NumericsError("non-finite field value", t=t, index=int(bad[0] // 2))

    snaps = [snapshot(s0.t)]
    # divergence is caught by the finiteness check; silence the overflow
    # chatter a diverging RK4 emits on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            t0 = s0.t + n * grid.dt
            source_half(t0)
            e_in = complex(inflow(t0 + grid.dt)) if inflow is not None else 0.0 + 0.0j
            E, out_val = advect(E, lam, e_in)
            flux += lam * dz_over_L * (abs(out_val) ** 2 - abs(e_in) ** 2)
            source_half(t0 + half_dt)
            check_finite(t0 + grid.dt)
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
