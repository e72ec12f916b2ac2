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
phi_g, and subcycles each matter half-step.  A lossless automatic run takes
the exact dark-state split (``_DarkStateSplit``): closed-form flows that keep
Q3 to rounding, the coupling as a fourth-order Magnus step, with substeps
steered by the drift of Q1 it measures.  Runs with decay or an explicit
substep count take classical RK4, with counts that follow the fastest
frequency of the half-step (``half_step_substeps``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericsError
from .medium import MediumParams, mixing_angle, slowdown
from .schedule import ControlSchedule

# matter substeps aim for (fastest frequency on the half-step) * substep <= this phase;
# the drift controller of a lossless run starts here and never goes below it
_SUBSTEP_PHASE_TARGET = 0.1
# criterion 5: the worst relative drift of Q1, Q2 and Q3 + flux a lossless run accepts
CHARGE_DRIFT_LIMIT = 1e-6
# the split's drift budget spreads half that limit over at least this many outer
# steps, so a short run is held to the per-step drift of a long one (a 20-step
# run spreading it over 20 steps drifts 3.3e-7 in Q1, where 2000 give 4.7e-9)
_DRIFT_STEPS_MIN = 2000
# weak excitation: peak photon density below this fraction of the smaller atomic one
_WEA_DENSITY_RATIO = 1e-2
# relative tolerance of wea_propagate's distance on a closed-form schedule
_WEA_QUAD_REL_TOL = 1e-8
# caps on one run: its outer steps, and the RK4 substeps the fixed 0.1 rad rule gives it
_MAX_OUTER_STEPS = 2_000_000
_MAX_RK4_SUBSTEPS = 100_000_000
# cap on the frame or snapshot cells (complex, 16 bytes each) one run holds: 27x
# the desk store's 373,760 (73 snapshots of 1024 x 5) and 48x a default
# gpe-soliton's 206,848 (101 frames of 2048); the desk store at stride 1 holds
# 7.3e6 and peaks at 159 MB resident
MAX_HELD_CELLS = 10_000_000
# panel doubling of ``integrate`` stops after this many halvings
_MAX_HALVINGS = 16
# the smallest normal float: the floor of a half angle or x that a sin(x)/x divides by
_TINY = float(np.finfo(float).tiny)
# the split's cosh(x) - 1 and sinh(x)/x (cos(x) - 1 and sin(x)/x) are their series
# in x^2: to x^2 while every x^2 is at most _SERIES_LINEAR_MAX, to x^4 while at
# most _PAIR_SERIES_MAX; the dropped terms are then below 4.2e-18 and 1.4e-21, and
# the flows add them to fields of size 1 (every call of the desk store takes the
# first: it saves a tenth of the run)
_SERIES_LINEAR_MAX = 1e-8
_PAIR_SERIES_MAX = 1e-6
# the Magnus step's Gauss nodes sit (sqrt(3)/6) h either side of the substep's
# midpoint; its commutator rotation, halved, is this times h^2 (Omega2 - Omega1)
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
_MAGNUS_KAPPA = math.sqrt(3.0) / 24.0


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

    @property
    def outer_steps(self) -> int:
        """Number of dt steps to the horizon, at least one."""
        return max(1, int(round(self.t_end / self.dt)))

    @classmethod
    def for_speed(cls, z_min: float, z_max: float, n_z: int, c: float,
                  t_end: float, cfl: float = 1.0) -> "Grid1D":
        """Grid with dt chosen from the advection speed; cfl=1 gives the
        exact-shift regime, cfl<1 genuine first-order upwind."""
        if not 0 < cfl <= 1.0:
            raise ValueError("cfl must lie in (0, 1]")
        dz = (z_max - z_min) / max(n_z - 1, 1)  # __post_init__ rejects n_z < 16
        return cls(z_min=z_min, z_max=z_max, n_z=n_z, dt=cfl * dz / c, t_end=t_end)


@dataclass(frozen=True)
class GaussianPulse:
    """Closed-form Gaussian envelope descriptor."""

    center: float      # um
    rms_width: float   # um
    amplitude: float   # dimensionless peak value of E

    def __post_init__(self):
        # a product, not ``**``: an overflowing float power raises OverflowError
        if not (self.rms_width > 0 and 0 < self.rms_width * self.rms_width < math.inf):
            raise ValueError("rms_width must be positive, and its square positive and finite")

    def sample(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        # far off the pulse the square overflows to inf, and exp(-inf) = 0 is right
        with np.errstate(over="ignore"):
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

    ``boundary_photon_flux`` is the cumulative photon number that has left
    the domain through the right edge up to time t (nothing flows in), used
    for flux-corrected conservation checks.  ``matter_substeps`` is the
    cumulative number of matter substeps (RK4 or split) taken up to time t.
    """

    t: float
    z: np.ndarray
    E: np.ndarray
    phi_a: np.ndarray
    phi_b: np.ndarray
    phi_e: np.ndarray
    phi_g: np.ndarray
    boundary_photon_flux: float = 0.0
    matter_substeps: int = 0

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
    return tuple(float(q) for q in _state_charges(s, p.L))


def _state_charges(s: MeanFieldState, L: float) -> list:
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
    q = np.array([_state_charges(s, p.L) for s in snapshots])
    q[:, 2] += [s.boundary_photon_flux for s in snapshots]
    scale = np.where(q[0] == 0.0, 1.0, np.abs(q[0]))   # absolute where a charge is 0
    return tuple(float(x) for x in np.max(np.abs(q - q[0]), axis=0) / scale)


def integration_diagnostics(snapshots: list[MeanFieldState], p: MediumParams,
                            grid: Grid1D, substeps: int) -> dict:
    """What an ``integrate_mean_field`` run with ``substeps`` did: its outer
    steps, its ``matter_step``, the matter substeps it took, its CFL number
    and ``charge_drifts`` per charge."""
    out = {"outer_steps": grid.outer_steps,
           "matter_step": matter_step(p, substeps),
           "matter_substeps": snapshots[-1].matter_substeps - snapshots[0].matter_substeps,
           "cfl": grid.cfl(p.c)}
    for name, drift in zip(("q1", "q2", "q3"), charge_drifts(snapshots, p)):
        out[f"charge_drift_{name}"] = drift
    return out


def amplitude_ratio(p: MediumParams, sched: ControlSchedule, t: float) -> float:
    """Weak-excitation amplitude law cos(theta(t))/cos(theta(0)) of a pulse
    riding the dark state; ``ValueError`` if cos(theta(0)) is 0."""
    theta0 = mixing_angle(p, sched.omega(0.0))
    theta_t = mixing_angle(p, sched.omega(t))
    cos0 = math.cos(theta0)
    if cos0 == 0.0:
        raise ValueError("amplitude law undefined: control field off at t=0")
    return math.cos(theta_t) / cos0


def wea_propagate(env0: SignalEnvelope, sched: ControlSchedule, p: MediumParams,
                  t: float) -> SignalEnvelope:
    """Closed-form weak-excitation propagation.

    The envelope translates by the integral of the group velocity over
    [0, t] (Gauss-Legendre panels: one pass over the knot panels of a
    schedule with knots, halved until converged otherwise) and rescales by
    ``amplitude_ratio``; the temporal profile is otherwise unchanged.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    gc2 = p.pair_coupling_sq

    def v_g(s: np.ndarray) -> np.ndarray:
        return p.c / (1.0 + slowdown(gc2, sched.omega(s)))

    if sched.times:
        dist = gauss_legendre(v_g, [0.0, *(k for k in sched.times if 0.0 < k < t), t])
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


@functools.cache
def _gauss_legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 12-node Gauss-Legendre rule on [-1, 1], built on first use: importing
    numpy.polynomial costs a few ms that most runs never need."""
    from numpy.polynomial.legendre import leggauss
    return leggauss(12)


def gauss_legendre(f, edges) -> float:
    """Sum of 12-node Gauss-Legendre rules over the panels between ``edges``;
    the vectorised ``f`` is called once, on the (panels, 12) node array."""
    nodes, weights = _gauss_legendre_rule()
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return float(np.sum(half * (f(mid[:, None] + half[:, None] * nodes) @ weights)))


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


def _advect_upwind(E: np.ndarray, lam: float) -> np.ndarray:
    """One first-order upwind step; lam == 1 degenerates to the exact shift.

    Nothing flows in: the left face carries 0."""
    upstream = np.empty_like(E)
    upstream[1:] = E[:-1]
    upstream[0] = 0.0
    if abs(lam - 1.0) < 1e-12:
        return upstream
    return E - lam * (E - upstream)


def _advect_muscl(E: np.ndarray, lam: float) -> np.ndarray:
    """Second-order MUSCL step with a minmod limiter (componentwise).

    Nothing flows in: the ghost cell and the left face carry 0."""
    ext = np.empty(len(E) + 2, dtype=complex)
    ext[0] = 0.0
    ext[1:-1] = E
    ext[-1] = E[-1]
    d_left = ext[1:-1] - ext[:-2]
    d_right = ext[2:] - ext[1:-1]
    slope = _minmod(d_left.real, d_right.real) + 1j * _minmod(d_left.imag, d_right.imag)
    # face value to the right of each cell, upwind-biased
    face = ext[1:-1] + 0.5 * (1.0 - lam) * slope
    flux_in = np.empty_like(face)
    flux_in[1:] = face[:-1]
    flux_in[0] = 0.0
    return E - lam * (face - flux_in)


def half_step_substeps(t0: float, sched: ControlSchedule, p: MediumParams, grid: Grid1D,
                       substeps: int = 0) -> np.ndarray:
    """RK4 substep count of each matter half-step (two per outer step) of an
    integration from ``t0`` to the grid horizon, under the fixed rule.

    ``substeps=0`` sizes each half-step from its own fastest frequency w
    (``_half_step_frequencies``) so that w * substep <= _SUBSTEP_PHASE_TARGET.
    A positive count is used everywhere; a negative one is a ``ConfigError``.
    A lossless automatic integration takes the split step instead, never more
    substeps than these counts, sized from its measured drift (see
    ``integrate_mean_field``).
    """
    n_half = _half_steps(grid)
    check_options(substeps=substeps)
    if substeps:
        if substeps * n_half > _MAX_RK4_SUBSTEPS:
            raise ConfigError(f"run.substeps: {substeps} on each of {n_half} half-steps is "
                              f"{substeps * n_half:.3g} RK4 substeps (more than "
                              f"{_MAX_RK4_SUBSTEPS:g})")
        return np.full(n_half, substeps)
    return _substep_counts(0.5 * grid.dt, _half_step_frequencies(t0, sched, p, grid),
                           _SUBSTEP_PHASE_TARGET)


def check_options(*, substeps: int = 0, advection: str = "upwind",
                  snapshot_stride: int = 1) -> None:
    """The solvers' option checks (``ConfigError``), each argument defaulting
    to a valid value: substeps >= 0 (0 = automatic), a known scheme, stride >= 1."""
    if snapshot_stride < 1:
        raise ConfigError("snapshot stride must be at least 1")
    if substeps < 0:
        raise ConfigError("substeps must be nonnegative (0 = automatic)")
    if advection not in ("upwind", "muscl"):
        raise ConfigError(f"unknown advection scheme {advection!r}")


def check_split_scale(p: MediumParams, grid: Grid1D, sched: ControlSchedule) -> None:
    """``ValueError`` unless every coupling scalar the split squares on a
    substep h <= dt/2 has a finite square: g_tilde L h, g_tilde sqrt(L) h and
    the commutator's kappa g_tilde L, kappa <= _MAGNUS_KAPPA h^2 Omega_max."""
    h = 0.5 * grid.dt
    g_pair = p.g_tilde * p.L
    for name, x in (("g_tilde L dt/2", h * g_pair),
                    ("g_tilde sqrt(L) dt/2", h * p.g_tilde * math.sqrt(p.L)),
                    ("its commutator angle per |phi_a phi_b|",
                     _MAGNUS_KAPPA * h * h * sched.plateau * g_pair)):
        # a product, not ``**``: an overflowing float power raises OverflowError
        if not math.isfinite(x * x):
            raise ValueError(f"the dark-state split's coupling {name} = {x:.3g} squares "
                             "beyond the float range")


def matter_step(p: MediumParams, substeps: int) -> str:
    """The matter step of an ``integrate_mean_field`` run: ``"split"`` for a
    lossless automatic one (``substeps=0``), otherwise ``"rk4"``."""
    return "split" if substeps == 0 and p.lossless else "rk4"


def held_frame_cells(grid: Grid1D, stride: int, rows: int) -> int:
    """The cells of the frames or snapshots a run holds: the first state and
    one every ``stride`` steps or at the last, ceil(steps/stride) + 1 of
    n_z x ``rows`` cells each.  A run beyond the outer-step cap, which its
    solver refuses before the first step, is counted as two."""
    steps = grid.t_end / grid.dt
    frames = 2 if steps > _MAX_OUTER_STEPS + 0.5 else 1 + -(-grid.outer_steps // stride)
    return frames * grid.n_z * rows


def capped_outer_steps(grid: Grid1D, key: str, remedy: str) -> int:
    """``grid.outer_steps``, or a ``ConfigError`` naming ``key`` and ``remedy``
    if that is more than ``_MAX_OUTER_STEPS``."""
    steps = grid.t_end / grid.dt
    if steps > _MAX_OUTER_STEPS + 0.5:  # where round(steps) passes the cap
        raise ConfigError(f"{key}: {steps:.3g} steps requested (more than "
                          f"{_MAX_OUTER_STEPS:g}); {remedy}")
    return grid.outer_steps


def _half_steps(grid: Grid1D) -> int:
    """Two matter half-steps per outer step; ``ConfigError`` for absurdly many."""
    return 2 * capped_outer_steps(grid, "grid.t_end_us", "rescale to desk parameters "
                                  "(smaller c or shorter horizon) or coarsen the grid")


def _substeps(phase: float, theta: float) -> int:
    """Substeps of a half-step whose one-substep phase is ``phase`` that keep
    each substep's phase at most theta: max(1, ceil(phase / theta))."""
    return max(1, math.ceil(phase / theta))


def _substep_counts(half_dt: float, w: np.ndarray, theta: float) -> np.ndarray:
    """RK4 substeps that keep w * substep <= theta on each half-step."""
    return np.array([_substeps(phase, theta) for phase in (half_dt * w).tolist()], dtype=int)


def _gauss_nodes(start: float, h: float, m: int) -> list:
    """The two Gauss nodes of each of m substeps of length h from ``start``."""
    off = _GAUSS_OFFSET * h
    return [t + d for t in (start + h * (j + 0.5) for j in range(m)) for d in (-off, off)]


def _half_step_frequencies(t0: float, sched: ControlSchedule, p: MediumParams,
                           grid: Grid1D) -> np.ndarray:
    """Fastest frequency of each matter half-step of an integration from ``t0``:
    w = hypot(Omega_max, g_tilde sqrt(N_a N_b)) + |Delta| + |delta| + max gamma,
    with Omega_max the largest control value on the half-step.  Omega_max is
    exact from the two end values plus any schedule knot inside, where it
    can peak above both: a table is piecewise linear between its knots and a
    tanh ramp, which has none, has a single minimum.  ``ConfigError`` if the
    fixed rule would take more than ``_MAX_RK4_SUBSTEPS`` in all."""
    n_half = _half_steps(grid)
    half_dt = 0.5 * grid.dt
    edges = t0 + half_dt * np.arange(n_half + 1)
    om = sched.omega(edges)
    om_max = np.maximum(om[:-1], om[1:])
    j = np.searchsorted(edges, sched.times, side="right") - 1
    inside = (j >= 0) & (j < n_half)
    np.maximum.at(om_max, j[inside], np.asarray(sched.values)[inside])
    w = (np.hypot(om_max, math.sqrt(p.pair_coupling_sq))
         + abs(p.Delta) + abs(p.delta)
         + max(p.gamma_a, p.gamma_b, p.gamma_e, p.gamma_g))
    total = half_dt * float(np.sum(w)) / _SUBSTEP_PHASE_TARGET
    if not total <= _MAX_RK4_SUBSTEPS:
        raise ConfigError(
            "medium: the fastest frequency hypot(Omega, g_tilde sqrt(N_a N_b)) + |Delta| + "
            f"|delta| + max gamma reaches {float(np.max(w)):.3g} rad/us, so the run needs "
            f"{total:.3g} RK4 substeps (more than {_MAX_RK4_SUBSTEPS:g})")
    return w


def _next_split_phase(theta: float, drift: float, budget: float, ceiling: float) -> float:
    """Elementary step-size controller theta (budget/drift)^(1/2) (Hairer,
    Norsett & Wanner, Solving ODEs I, sec. II.4) of the split matter step,
    its factor clipped to [1/2, 3/2] (3/2 for a zero drift, 1/2 for an
    overflowing one), then theta to at most ``ceiling`` and at least
    _SUBSTEP_PHASE_TARGET.  The exponent is that of a Q1 drift per outer step
    that scales as h^2; the split's drift, with its fourth-order Magnus
    coupling, falls about 16-fold when h halves, so the factor overshoots
    and the drift fed in is a two-step mean (see ``integrate_mean_field``)."""
    if drift == 0.0:
        factor = 1.5
    elif drift < math.inf:
        factor = min(max((budget / drift) ** 0.5, 0.5), 1.5)
    else:  # a charge overflowed (inf or nan): shrink
        factor = 0.5
    return max(min(theta * factor, ceiling), _SUBSTEP_PHASE_TARGET)


def _even_series(r: np.ndarray, y_scale: float, y_max: float, y: np.ndarray,
                 c: np.ndarray, s: np.ndarray, s_scale: complex) -> bool:
    """cosh(x) - 1 into c and s_scale sinh(x)/x into s from their series in
    y = y_scale r = x^2 (at y = -x^2, cos(x) - 1 and s_scale sin(x)/x), y into
    ``y`` first so that no scalar product of the scales can overflow; in
    place and True while y_max, the largest |y|, allows the series (see
    _SERIES_LINEAR_MAX), False, with nothing written, above."""
    mul, add = np.multiply, np.add
    if not y_max <= _PAIR_SERIES_MAX:
        return False
    mul(r, y_scale, y)
    if y_max <= _SERIES_LINEAR_MAX:
        mul(y, 0.5, c)                        # y/2
        mul(y, s_scale / 6.0, s)
        add(s, s_scale, s)                    # s_scale (1 + y/6)
        return True
    mul(y, 1.0 / 24.0, c)
    add(c, 0.5, c)
    mul(c, y, c)                              # y/2 + y^2/24
    mul(y, s_scale / 120.0, s)
    add(s, s_scale / 6.0, s)
    mul(s, y, s)
    add(s, s_scale, s)                        # s_scale (1 + y/6 + y^2/120)
    return True


class _DarkStateSplit:
    """Exact flows of the lossless matter equations on one grid, composed
    into a split step.

    With every gamma 0 the matter/source system is the sum of three flows,
    each solved in closed form per cell (rows of the state: E, phi_a, phi_b,
    phi_e, phi_g):

    - ``coupling`` (A): phi_a and phi_b frozen, (u, phi_e, phi_g) with
      u = E/sqrt(L) evolve under H = [[0, G*, 0], [G, 0, Omega], [0, Omega, 0]],
      G = g_tilde L phi_a phi_b.  The dark vector (Omega, 0, -G)/W,
      W = sqrt(|G|^2 + Omega^2), is left alone; phi_e and the bright vector
      (G*, 0, Omega)/W rotate into each other by the angle x = W h.  The
      rotation is written with tan(x/4), never dividing by W.  Omega
      changes in time, so A runs as the fourth-order Magnus step at the
      Gauss nodes t1,2 = t_mid -+ (sqrt(3)/6) h (Iserles & Norsett, Phil.
      Trans. R. Soc. A 357 (1999) 983; Blanes, Casas & Ros, BIT 40 (2000)
      434): exp(Y/2) A(h; (Omega1 + Omega2)/2) exp(Y/2), where the
      commutator term Y/2 (``rotate``) turns (u, phi_g) alone by the angle
      kappa |G| per cell, u' = kappa G* phi_g and phi_g' = -kappa G u, with
      kappa = _MAGNUS_KAPPA h^2 (Omega2 - Omega1), _MAGNUS_KAPPA = sqrt(3)/24.
    - ``pairs`` (B): E, phi_e and phi_g frozen, phi_a' = i kappa phi_b* and
      phi_b' = i kappa phi_a* with kappa = g_tilde sqrt(L) E* phi_e, so
      phi_a <- cosh(x) phi_a + i h sinh(x)/x kappa phi_b* with x = |kappa| h,
      and the same for phi_b.
    - ``phases`` (D): the detunings, phi_a <- exp(-i delta t) phi_a and
      phi_e <- exp(-i Delta t) phi_e.

    A, its rotations and D conserve Q3 and |phi_a|^2 - |phi_b|^2 per cell; B
    conserves |phi_a|^2 - |phi_b|^2 and leaves the Q3 terms alone.  So Q3
    and Q1 - Q2 hold to rounding, and the splitting error shows in Q1 (and
    Q2) alone.  Every buffer and view is made once; the last argument of
    each ufunc call is its output.
    """

    def __init__(self, p: MediumParams, n_z: int):
        self.g_field = p.g_tilde * math.sqrt(p.L)   # kappa = g_field E* phi_e
        self.g_signal = self.g_field * p.L          # E' = i g_signal (phi_a phi_b)* phi_e
        self.g_pair = p.g_tilde * p.L               # |G| = g_pair |phi_a phi_b|
        self.sqrt_L, self.inv_L = math.sqrt(p.L), 1.0 / p.L
        self.delta, self.Delta = p.delta, p.Delta
        self.detuned = p.delta != 0.0 or p.Delta != 0.0
        self.ab, self.cab, self.s, self.c, self.e_new, self.tmp = np.empty((6, n_z), dtype=complex)
        self.q, self.sh, self.ch, self.sq, self.mix = np.empty((5, n_z))
        self.pair = np.empty((2, n_z), dtype=complex)
        # |phi_a phi_b|^2 as ab cab, and the rotation's cos and coefficient rows:
        # held complex because a complex product is cheaper than a mixed one
        self.rc, self.rot_c, self.rot_p, self.rot_pc, self.rot_y = np.empty((5, n_z),
                                                                            dtype=complex)
        self.r = self.rc.real
        # the pair flow's kappa, cosh and sinh(x)/x, and |kappa|^2 (complex too)
        self.kappa, self.cosh, self.sinh, self.rk = np.empty((4, n_z), dtype=complex)

    def _load_ab(self, y: np.ndarray) -> None:
        """phi_a phi_b, its conjugate and |phi_a phi_b|^2 of y into ab, cab and
        rc, whose real part is r (its imaginary part is 0 up to rounding)."""
        np.multiply(y[1], y[2], self.ab)
        np.conjugate(self.ab, self.cab)
        np.multiply(self.ab, self.cab, self.rc)

    def rotate(self, y: np.ndarray, kappa: float) -> None:
        """The commutator rotation of (u, phi_g) by kappa, in place (see the
        class docstring)."""
        self._load_ab(y)
        self._rotate(y, kappa, float(self.r.max()))

    def _rotate(self, y: np.ndarray, kappa: float, r_max: float) -> None:
        """``rotate`` from the loaded ab, cab, r and rc, r_max the largest r:
        with x^2 = k^2 r, k = kappa g_pair, C = cos(x) and S = sin(x)/x,
            E <- C E + k sqrt(L) S cab phi_g,  phi_g <- C phi_g - (k/sqrt(L)) S ab E.
        C^2 + S^2 x^2 = 1: the rotation is unitary.  It adds each change to
        its field, with C - 1 in place of a C rounded near 1, whose error
        would build up over a run in Q3.  C - 1 and S are their series
        (``_even_series``) where x is small enough everywhere; above, they
        come from x/2 floored to half the smallest normal float."""
        mul, add = np.multiply, np.add
        E, g = y[0], y[4]
        c, p, pc = self.rot_c, self.rot_p, self.rot_pc
        k = kappa * self.g_pair
        kk = k * k
        alpha = k * self.sqrt_L
        if not _even_series(self.rc, -kk, kk * r_max, self.rot_y, c, p, alpha):
            x, half, sn, cs = self.q, self.sh, self.ch, self.sq
            mul(self.r, kk, x)
            np.sqrt(x, x)
            np.maximum(x, _TINY, out=x)
            mul(x, 0.5, half)
            np.sin(half, sn)
            np.cos(half, cs)
            mul(cs, sn, cs)
            np.divide(cs, half, cs)
            mul(cs, alpha, p)                 # k sqrt(L) S
            mul(sn, sn, sn)
            mul(sn, -2.0, c)                  # C - 1 = -2 sin^2(x/2)
        t = self.rot_y
        mul(p, self.cab, p)                   # k sqrt(L) S cab
        np.conjugate(p, pc)
        mul(pc, -self.inv_L, pc)              # -(k/sqrt(L)) S ab
        mul(pc, E, pc)
        mul(c, g, t)
        add(pc, t, pc)                        # the change of phi_g
        mul(p, g, p)
        mul(c, E, t)
        add(p, t, p)                          # the change of E
        add(E, p, E)
        add(g, pc, g)

    def coupling(self, y: np.ndarray, om: float, h: float,
                 before: float = 0.0, after: float = 0.0) -> None:
        """Flow A of y over h at control ``om``, in place, between the
        commutator rotations by ``before`` and ``after`` (0 skips one); all
        three share phi_a phi_b, which A leaves alone.

        With s = W beta = g_field phi_a phi_b E + om phi_g (beta the bright
        amplitude), P = h sinc(x), Q = -(h^2/2) (sin(x/2)/(x/2))^2 and
        C = cos(x), the bright change over W is c = Q s + i P phi_e, and
            phi_e <- i P s + C phi_e,  E <- E + g_signal (phi_a phi_b)* c,
            phi_g <- phi_g + om c.
        All three come from t = tan(x/4), one vectorised call where sin and
        cos of x/2 would take two slower ones.  The code carries -i h s and
        -i c/h, which folds each factor i and h into a scalar.  At W = 0 both
        G and om vanish, so E and phi_g keep their values whatever c is, and
        phi_e keeps its own."""
        mul, add = np.multiply, np.add
        E, e, g = y[0], y[3], y[4]
        ab, s, c, tmp = self.ab, self.s, self.c, self.tmp
        q, sh, ch, sq, mix = self.q, self.sh, self.ch, self.sq, self.mix
        self._load_ab(y)
        if before or after:
            r_max = float(self.r.max())
        if before:
            self._rotate(y, before, r_max)
        mul(self.r, (0.25 * h * self.g_pair) ** 2, q)
        add(q, (0.25 * h * om) ** 2, q)
        np.sqrt(q, q)                         # v = x/4
        # at least the smallest normal float: t d / v is then 1, not 0/0, at W = 0
        np.maximum(q, _TINY, out=q)
        np.tan(q, sh)                         # t = tan(x/4)
        mul(sh, sh, mix)
        add(mix, 1.0, ch)
        np.divide(1.0, ch, ch)                # d = cos^2(x/4) = 1/(1 + t^2)
        mul(sh, ch, sq)
        np.divide(sq, q, sq)                  # sin(x/2)/(x/2) = t d / v
        np.subtract(1.0, mix, mix)
        mul(mix, ch, mix)                     # cos(x/2) = (1 - t^2) d
        mul(sq, mix, sh)                      # P/h = sinc(x)
        mul(mix, mix, ch)
        mul(ch, 2.0, ch)
        add(ch, -1.0, ch)                     # C = 2 cos^2(x/2) - 1
        mul(sq, sq, sq)
        mul(sq, -0.5, sq)                     # Q/h^2
        mul(ab, E, s)
        mul(s, -1j * h * self.g_field, s)
        mul(g, -1j * h * om, tmp)
        add(s, tmp, s)                        # -i h s
        mul(sq, s, c)
        mul(sh, e, tmp)
        add(c, tmp, c)                        # -i c/h = (Q/h^2)(-i h s) + (P/h) e
        mul(ch, e, tmp)
        mul(sh, s, self.e_new)
        np.subtract(tmp, self.e_new, e)       # phi_e <- C e - (P/h)(-i h s)
        mul(self.cab, c, tmp)
        mul(tmp, 1j * h * self.g_signal, tmp)
        add(E, tmp, E)
        mul(c, 1j * h * om, tmp)
        add(g, tmp, g)
        if after:
            self._rotate(y, after, r_max)

    def pairs(self, y: np.ndarray, h: float) -> None:
        """Flow B of y over h, in place: with x = |kappa| h,
        (phi_a, phi_b) <- cosh(x) (phi_a, phi_b) + i h sinh(x)/x kappa (phi_b, phi_a)*.
        Where x is small enough everywhere cosh and sinh(x)/x are their series
        (``_even_series``), exact to rounding; above, sinh(x)/x is taken at x
        floored to the smallest normal float, so it never divides by 0."""
        mul, add = np.multiply, np.add
        E, e = y[0], y[3]
        kappa, ch, sc, rk = self.kappa, self.cosh, self.sinh, self.rk
        np.conjugate(E, kappa)
        mul(kappa, e, kappa)                  # kappa / g_field
        np.conjugate(kappa, sc)
        mul(kappa, sc, rk)                    # |kappa / g_field|^2, its real part r
        r = rk.real
        hh = (h * self.g_field) ** 2          # x^2 = hh r
        scale = 1j * h * self.g_field
        if _even_series(rk, hh, hh * float(r.max()), rk, ch, sc, scale):
            add(ch, 1.0, ch)
        else:
            x, sn = self.q, self.sh
            mul(r, hh, x)
            np.sqrt(x, x)
            np.maximum(x, _TINY, out=x)
            np.cosh(x, ch)
            np.sinh(x, sn)
            np.divide(sn, x, sn)
            mul(sn, scale, sc)
        mul(kappa, sc, kappa)
        np.conjugate(y[2:0:-1], self.pair)    # rows phi_b*, phi_a*
        mul(self.pair, kappa, self.pair)
        mul(y[1:3], ch, y[1:3])
        add(y[1:3], self.pair, y[1:3])

    def phases(self, y: np.ndarray, tau: float) -> None:
        """Flow D of y over tau, in place: the detuning phases of phi_a and phi_e."""
        np.multiply(y[1], complex(math.cos(self.delta * tau), -math.sin(self.delta * tau)), y[1])
        np.multiply(y[3], complex(math.cos(self.Delta * tau), -math.sin(self.Delta * tau)), y[3])

    def half_step(self, y: np.ndarray, om: list, h: float, opening: float,
                  closing: float, pending: float) -> float:
        """len(om) // 2 split substeps of length h, in place, om the control
        at each substep's two Gauss nodes in turn: per substep
        B(h/2) D(h/2) R A R D(h/2) B(h/2), R A R the Magnus step of
        ``coupling``.  Between neighbouring substeps the two B halves are
        fused into B(h) and the two rotations into one, taken with the next
        A.  The first B runs for ``opening``, and ``pending`` (a rotation the
        caller still owes y) joins the first rotation.  The last B runs for
        ``closing``, with the last rotation before it; a closing 0 leaves
        both to the caller, and the rotation left owed is returned (0 if
        none)."""
        self.pairs(y, opening)
        m = len(om) // 2
        scale = _MAGNUS_KAPPA * h * h
        for j in range(m):
            if j:
                self.pairs(y, h)
            if self.detuned:
                self.phases(y, 0.5 * h)
            om1, om2 = om[2 * j], om[2 * j + 1]
            kappa = scale * (om2 - om1)
            close = kappa if closing and j == m - 1 else 0.0
            self.coupling(y, 0.5 * (om1 + om2), h, pending + kappa, close)
            pending = kappa - close
            if self.detuned:
                self.phases(y, 0.5 * h)
        if closing:
            self.pairs(y, closing)
        return pending


def _rk4_matter_step(y: np.ndarray, p: MediumParams, n_z: int) -> Callable:
    """The classical RK4 matter step of y (in place) for ``integrate_mean_field``:
    returns ``step(om_stage, h)``, which takes len(om_stage) // 2 substeps of
    length h, om_stage the control at every substep's start, midpoint and end.

    The four RK4 stages, the stage input, the update accumulator and the
    right-hand side's scratch rows are allocated once and written through the
    ufuncs' output arguments; the views that rhs reads and writes are taken
    once too, so a substep allocates nothing.  Every element keeps the
    operation order of the plain expressions, e.g.
    ``y + (h/6)*(((k1 + 2*k2) + 2*k3) + k4)``, so the buffered step reproduces
    them bit for bit.  The last argument of each ufunc call is its output.
    """
    g_field = p.g_tilde * math.sqrt(p.L)   # matter-equation coupling
    g_signal = g_field * p.L               # signal source-term coupling
    dec_a = -1j * p.delta - p.gamma_a
    dec_b = -p.gamma_b
    dec_e = -1j * p.Delta - p.gamma_e
    dec_g = -p.gamma_g

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

    def step(om_stage: np.ndarray, h: float) -> None:
        """Substeps of y in place: y + (h/6)(((k1 + 2 k2) + 2 k3) + k4)."""
        for j in range(len(om_stage) // 2):
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

    return step


def integrate_mean_field(
    s0: MeanFieldState,
    sched: ControlSchedule,
    p: MediumParams,
    grid: Grid1D,
    *,
    snapshot_stride: int = 10,
    substeps: int = 0,
    advection: str = "upwind",
    on_snapshot: Optional[Callable[[MeanFieldState], None]] = None,
) -> list[MeanFieldState]:
    """Advance the coupled signal/matter equations to the grid horizon.

    Strang splitting per outer step: half a matter/source step, one
    advection step of the signal at speed c, half a matter/source step.
    Each matter half-step is subcycled so the fastest frequency stays
    resolved: it takes max(1, ceil(half_dt w / theta)) substeps of length h,
    w its fastest frequency (``_half_step_frequencies``).

    - A lossless automatic run (every gamma 0, ``substeps=0``) takes the
      exact dark-state split of ``_DarkStateSplit``: per substep the Strang
      composition B(h/2) D(h/2) A(h) D(h/2) B(h/2) of closed-form flows,
      A the fourth-order Magnus step of the coupling, wrapped in its
      commutator rotations, with the controls at the substep's two Gauss
      nodes (all of an outer step's in one ``sched.omega`` call).  The
      closing B(h/2) of an outer step, and the rotation before it, are
      fused into the opening B and rotation of the next (a snapshot closes
      both on its own copy).  Q3 and Q1 - Q2 hold to rounding, so theta is
      steered by Q1: Q1 is read after each first half-step (a whole state),
      and after each outer step, once the fields are finite, d is the mean
      relative change of the last two outer steps from the third step on
      (before, the change since the last reading), since the one-step
      change flips sign on a plateau, and theta becomes
      ``_next_split_phase(theta, d, b, half_dt w_next)`` with
      b = 0.5 CHARGE_DRIFT_LIMIT / max(outer steps, _DRIFT_STEPS_MIN) and
      w_next the next step's larger half-step frequency: above that phase
      each of its half-steps takes one substep already, so theta cannot
      wind up.  theta starts at 0.1 rad.
    - Otherwise the matter/source system is integrated pointwise with
      classical RK4 (``_rk4_matter_step``): with decay and ``substeps=0`` theta
      is the fixed 0.1 rad of ``half_step_substeps``; a positive count gives
      every half-step that count.

    The state is one (5, n_z) array with rows E, phi_a, phi_b, phi_e, phi_g;
    row 0 alone is advected.  Snapshots (copies, one ``MeanFieldState``
    field per row, with the cumulative flux and substep count) are emitted
    every ``snapshot_stride`` outer steps and at the last; ``s0`` is not
    changed.  ``on_snapshot``, if given, is called with each snapshot as
    soon as it exists, the first one included.  Nothing flows in at the
    left edge, so the flux counts what leaves through the right edge.
    """
    check_options(advection=advection, snapshot_stride=snapshot_stride)
    lam = grid.cfl(p.c)
    if lam > 1.0 + 1e-9:
        raise ConfigError(f"grid.dt_us: CFL violation: c*dt/dz = {lam:.6g} > 1; "
                          "reduce dt or use Grid1D.for_speed")
    if not np.allclose(s0.z, grid.z):
        raise ConfigError("initial state grid does not match the integration grid")

    half_dt = 0.5 * grid.dt
    split = matter_step(p, substeps) == "split"
    if split:
        w = _half_step_frequencies(s0.t, sched, p, grid)
        n_steps = len(w) // 2
        theta = _SUBSTEP_PHASE_TARGET
        budget = 0.5 * CHARGE_DRIFT_LIMIT / max(n_steps, _DRIFT_STEPS_MIN)
        # the phase of one substep on each half-step
        phase = (half_dt * w).tolist()
    else:
        counts = half_step_substeps(s0.t, sched, p, grid, substeps).tolist()
        n_steps = len(counts) // 2

    advect = _advect_upwind if advection == "upwind" else _advect_muscl
    dz_over_L = grid.dz / p.L

    y = np.array([s0.E, s0.phi_a, s0.phi_b, s0.phi_e, s0.phi_g], dtype=complex)
    flux = float(s0.boundary_photon_flux)
    taken = int(s0.matter_substeps)
    # the B time and the rotation the split still owes the state y, 0 under RK4
    deferred = pending = 0.0

    if split:
        flows = _DarkStateSplit(p, grid.n_z)

        def q1() -> float:
            return float((np.vdot(y[1], y[1]) + np.vdot(y[3:], y[3:])).real) * grid.dz

        q = q_old = q1()
        scale = abs(q) or 1.0   # as in charge_drifts: absolute where Q1 is 0
        # the phase at which every half-step of step n takes one substep
        ceilings = [max(a, b) for a, b in zip(phase[0::2], phase[1::2])]
    else:
        rk4 = _rk4_matter_step(y, p, grid.n_z)

    snaps = []

    def snapshot(t: float) -> None:
        fields = y.copy()
        if deferred:   # the state at t itself: the owed rotation, then the owed B
            if pending:
                flows.rotate(fields, pending)
            flows.pairs(fields, deferred)
        snaps.append(MeanFieldState(t, grid.z, *fields, boundary_photon_flux=flux,
                                    matter_substeps=taken))
        if on_snapshot is not None:
            on_snapshot(snaps[-1])

    snapshot(s0.t)
    # divergence is caught by the finiteness check; silence the overflow
    # chatter a diverging step emits on the way there
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            t0 = s0.t + n * grid.dt
            t1 = t0 + half_dt
            last = n == n_steps - 1
            if split:
                m0, m1 = _substeps(phase[2 * n], theta), _substeps(phase[2 * n + 1], theta)
                h0, h1 = half_dt / m0, half_dt / m1
                # the Gauss-node controls of both half-steps in one call
                om = sched.omega(_gauss_nodes(t0, h0, m0) + _gauss_nodes(t1, h1, m1)).tolist()
                flows.half_step(y, om[:2 * m0], h0, deferred + 0.5 * h0, 0.5 * h0, pending)
                # Q1 at a whole state: after this half-step's closing B, where an
                # outer step of matter evolution separates two readings
                q_mid = q1()
            else:
                m0, m1 = counts[2 * n], counts[2 * n + 1]
                h0, h1 = half_dt / m0, half_dt / m1
                rk4(sched.omega(t0 + 0.5 * h0 * np.arange(2 * m0 + 1)), h0)
            out_val = y[0, -1]
            y[0] = advect(y[0], lam)
            flux += lam * dz_over_L * abs(out_val) ** 2
            if split:
                # a closing B(h/2) and rotation left owed join the next step's first
                pending = flows.half_step(y, om[2 * m0:], h1, 0.5 * h1,
                                          0.5 * h1 if last else 0.0, 0.0)
                deferred = 0.0 if last else 0.5 * h1
            else:
                rk4(sched.omega(t1 + 0.5 * h1 * np.arange(2 * m1 + 1)), h1)
            taken += m0 + m1
            # one sum of squares is finite where every value is (its overflow on
            # a finite state is told apart by the cell-by-cell look)
            if not math.isfinite(np.vdot(y, y).real):
                bad = ~np.isfinite(y)
                if bad.any():
                    # row-major: the first bad column of the first row that has one
                    raise NumericsError("non-finite field value", t=t0 + grid.dt,
                                        index=int(np.nonzero(bad)[1][0]))
            if split:
                # the mean signed change of Q1 over the last two outer steps once
                # two lie between readings (the change since the last reading
                # before): on a plateau the one-step change flips sign
                drift = abs(q_mid - q_old) / (2.0 * scale) if n > 1 else abs(q_mid - q) / scale
                theta = _next_split_phase(theta, drift, budget,
                                          0.0 if last else ceilings[n + 1])
                q_old, q = q, q_mid
            if (n + 1) % snapshot_stride == 0 or last:
                snapshot(t0 + grid.dt)
    return snaps


def storage_fidelity(input_env: SignalEnvelope, retrieved: SignalEnvelope) -> float:
    """Shift-aligned normalized overlap of two envelopes on one grid.

    Maximizes |<in, out_shifted>|^2 / (|in|^2 |out|^2) over every integer
    grid shift, since a retrieved pulse may sit anywhere downstream;
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
    best = float(np.max(np.abs(np.correlate(b, a, mode="full")) ** 2))
    return best / (na * nb)


def pulse_center(z: np.ndarray, E: np.ndarray) -> float:
    """Intensity centroid of an envelope."""
    w = np.abs(E) ** 2
    total = float(np.sum(w))
    if total == 0.0:
        raise ValueError("cannot locate the center of a zero envelope")
    return float(np.sum(z * w) / total)
