"""Experiment drivers, each returning what it computes: storage/retrieval,
population-imbalance and medium-kind sweeps, and the feasibility margins."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import (
    CHARGE_DRIFT_LIMIT,
    Grid1D,
    MeanFieldState,
    SignalEnvelope,
    integrate_mean_field,
    integration_diagnostics,
    storage_fidelity,
)
from .errors import ConfigError, FeasibilityRefused, NumericsError, StoppedLightError
from .medium import (
    MediumKind,
    MediumParams,
    effective_pair_density,
    group_velocity_with_decay,
    population_split,
    slowdown,
)
from .schedule import ControlSchedule

# the storage span is where the control stays below this fraction of its plateau
_STORAGE_FRACTION = 0.1


def velocity_curve(p: MediumParams, sched: ControlSchedule, t: np.ndarray,
                   *, pair_density: Optional[float] = None) -> np.ndarray:
    """Decay-corrected group velocity sampled along a schedule.

    ``pair_density`` substitutes another effective density product for
    N_a*N_b (used by the medium-kind comparison).  Fully stopped samples
    come out as exactly zero velocity.
    """
    om = sched.omega(t)
    gc2 = p.pair_coupling_sq if pair_density is None else p.g_tilde**2 * pair_density
    return p.c / (1.0 + slowdown(gc2, om, p.gamma1 * p.gamma2))


def check_durations(*, t_s: float = 1.0, t_storage: float = 0.0) -> None:
    """``feasibility_check``'s duration checks (``ValueError``), each argument
    defaulting to a valid value: t_s > 0, t_storage >= 0."""
    if not t_s > 0:
        raise ValueError("t_s must be positive")
    if not t_storage >= 0:
        raise ValueError("t_storage must be nonnegative")


@dataclass
class FeasibilityReport:
    """Margins of the storage feasibility inequalities.

    A check passes (``passes(key)``, with ``key`` one of ``margins``: the
    ``storage``, ``spectral`` and ``compression`` windows) when its margin
    (the ratio that the corresponding "much less than" inequality requires
    to be small) stays below the threshold; ``all_ok`` when every one does.
    """

    optical_depth: float
    margins: dict[str, float]
    threshold: float = 0.1

    def passes(self, key: str) -> bool:
        return self.margins[key] < self.threshold

    @property
    def all_ok(self) -> bool:
        return all(map(self.passes, self.margins))


def feasibility_check(p: MediumParams, t_s: float, sched: ControlSchedule,
                      t_storage: float, *, threshold: float = 0.1) -> FeasibilityReport:
    """Evaluate the three storage inequalities as margin ratios.

    storage:     t_storage * gamma1           (hold time vs. coherence time)
    spectral:    (1/t_s) / (sqrt(d) v_g / L)  (pulse bandwidth vs. window)
    compression: v_g * t_s / L                (pulse length vs. medium)

    The optical depth is d = g_tilde^2 N_a N_b L / (gamma2 c) and v_g is the
    decay-corrected velocity at the schedule plateau.  A medium without
    effective coupling (g_tilde^2 N_a N_b is 0 or underflows, lossless
    media included) or whose optical depth is 0 stores nothing and has no
    spectral window: ``ConfigError`` naming ``medium.g_tilde_rad_per_us``.
    The depth is ``inf`` exactly when gamma2 is 0; a decaying medium whose
    depth overflows is a ``ConfigError`` naming ``medium.gamma_e_rad_per_us``
    and ``medium.length_um``.
    """
    check_durations(t_s=t_s, t_storage=t_storage)
    if p.pair_coupling_sq == 0.0:
        raise ConfigError("medium.g_tilde_rad_per_us: the coupling g_tilde^2 N_a N_b is 0, "
                          "so the medium stores nothing and has no spectral window")
    if p.gamma2 == 0.0:
        depth = math.inf   # no excited-state decay: the depth is unbounded
    else:
        rate = p.gamma2 * p.c   # 0 where a subnormal gamma2 underflows: the depth overflows
        depth = p.pair_coupling_sq * p.L / rate if rate > 0.0 else math.inf
        if depth == math.inf:
            raise ConfigError("medium.gamma_e_rad_per_us, medium.length_um: the optical depth "
                              "g_tilde^2 N_a N_b L / (gamma2 c) of a decaying medium "
                              "overflows a float")
    v_plateau = group_velocity_with_decay(p, sched.plateau)
    window = math.sqrt(depth) * v_plateau / p.L  # inf depth -> trivially wide window
    if not window > 0:
        raise ConfigError("medium.g_tilde_rad_per_us: the optical depth g_tilde^2 N_a N_b L "
                          "/ (gamma2 c) is 0, so the spectral window is empty")
    margins = {
        "storage": t_storage * p.gamma1,
        "spectral": (1.0 / t_s) / window,
        "compression": v_plateau * t_s / p.L,
    }
    return FeasibilityReport(optical_depth=depth, margins=margins, threshold=threshold)


def storage_span(sched: ControlSchedule, t_end: float) -> tuple[float, float]:
    """Interval where the control stays below ``_STORAGE_FRACTION`` of its plateau."""
    t = np.linspace(0.0, t_end, 4097)
    low = sched.omega(t) <= _STORAGE_FRACTION * sched.plateau
    if not np.any(low):
        return (0.0, 0.0)
    idx = np.nonzero(low)[0]
    return (float(t[idx[0]]), float(t[idx[-1]]))


def _aligned_mapping_residual(z: np.ndarray, stored: np.ndarray,
                              pulse: SignalEnvelope) -> float:
    """L2 distance between the stored field and -E_in(z - s), minimized over
    the translation s, relative to the input norm; 1.0 for an all-zero
    stored field, whose correlation has no peak to align on."""
    target_norm = math.sqrt(float(np.sum(np.abs(pulse.samples) ** 2)))
    if target_norm == 0.0:
        raise ValueError("zero-norm input envelope")
    if not np.any(stored):
        # nothing stored: the distance to any in-grid reference is its whole norm
        return 1.0

    def residual(shift: float) -> float:
        ref = -pulse.value_at(z - shift)
        return math.sqrt(float(np.sum(np.abs(stored - ref) ** 2))) / target_norm

    # coarse integer-cell alignment by cross-correlation, then a bounded refine
    corr = np.correlate(stored, -pulse.samples, mode="full")
    dz = float(z[1] - z[0])
    k = int(np.argmax(np.abs(corr))) - (len(z) - 1)
    s0 = k * dz
    return _golden_section(residual, s0 - 2 * dz, s0 + 2 * dz)[1]


def _golden_section(f, lo: float, hi: float, xatol: float = 1e-5) -> tuple[float, float]:
    """(x, f(x)) at the minimum of a unimodal ``f`` on [lo, hi], to within ``xatol``."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > xatol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


@dataclass(frozen=True)
class StorageResult:
    """What ``run_storage_retrieval`` computes: every snapshot, the ``stored``
    one, the scores and run diagnostics in ``scalars``, the feasibility
    margins, the pulse duration ``t_s`` the gate took, and the plateau group
    velocity."""

    snapshots: list[MeanFieldState]
    stored: MeanFieldState
    scalars: dict
    feasibility: FeasibilityReport
    t_s: float
    plateau_velocity: float


def run_storage_retrieval(
    p: MediumParams,
    sched: ControlSchedule,
    pulse: SignalEnvelope,
    grid: Grid1D,
    *,
    force: bool = False,
    substeps: int = 0,
    snapshot_stride: int = 10,
    advection: str = "upwind",
    threshold: float = 0.1,
    on_snapshot: Optional[Callable[[MeanFieldState], None]] = None,
) -> StorageResult:
    """Store a signal pulse in the molecular field and retrieve it.

    Runs the mean-field integrator through the full schedule, then scores
    the stored molecular profile (the snapshot nearest the middle of the
    storage span) against -E_in/sqrt(L) (shift-aligned residual), the
    retrieved-vs-input fidelity (over every shift) and efficiency, and
    reports the feasibility margins and the run's outer steps, the matter
    substeps it took, its CFL number and worst charge drifts.  The gate
    takes t_s as the pulse's rms width over the plateau velocity and the
    ``storage_span`` as the storage time, and refuses to run when a margin
    is not below ``threshold``, unless forced, raising ``FeasibilityRefused``
    with the margins.  A lossless run (every gamma 0) conserves the charges,
    so a worst drift above ``CHARGE_DRIFT_LIMIT`` raises ``NumericsError``;
    with decay the drift is only reported.  ``on_snapshot`` is
    ``integrate_mean_field``'s.
    """
    v_plateau = group_velocity_with_decay(p, sched.plateau)
    width = pulse.descriptor.rms_width if pulse.descriptor is not None else _rms_width(pulse)
    t_s = width / v_plateau
    span = storage_span(sched, grid.t_end)
    feas = feasibility_check(p, t_s, sched, t_storage=span[1] - span[0], threshold=threshold)
    if not feas.all_ok and not force:
        raise FeasibilityRefused(feas)

    if not pulse.wea_admissible(p):
        warnings.warn(
            f"pulse outside the weak-excitation regime "
            f"(photon/atom density ratio {pulse.photon_density_ratio(p):.3g})",
            stacklevel=2,
        )

    s0 = MeanFieldState.polariton_state(grid, p, pulse, sched.omega(0.0))
    snaps = integrate_mean_field(
        s0, sched, p, grid,
        snapshot_stride=snapshot_stride, substeps=substeps, advection=advection,
        on_snapshot=on_snapshot,
    )

    t_store = 0.5 * (span[0] + span[1]) if span[1] > span[0] else 0.5 * grid.t_end
    stored = min(snaps, key=lambda s: abs(s.t - t_store))

    scalars: dict = integration_diagnostics(snaps, p, grid, substeps)
    # np.max, not max: a nan drift must fail the gate wherever it sits
    worst = float(np.max([scalars[f"charge_drift_{name}"] for name in ("q1", "q2", "q3")]))
    if p.lossless and not worst <= CHARGE_DRIFT_LIMIT:
        step = (f"at run.substeps = {substeps}; use more RK4 substeps" if substeps else
                "with the automatic split step; set a positive run.substeps to "
                "take RK4 substeps")
        raise NumericsError(f"worst charge drift {worst:.3g} of a lossless run exceeds "
                            f"{CHARGE_DRIFT_LIMIT:g} {step}")
    input_norm = pulse.norm_sq()
    trivial = input_norm == 0.0
    scalars["trivial_input"] = trivial

    sqrtL_phig = math.sqrt(p.L) * stored.phi_g
    if not trivial:
        scalars["mapping_residual"] = _aligned_mapping_residual(grid.z, sqrtL_phig, pulse)
        retrieved = SignalEnvelope(z=grid.z, samples=snaps[-1].E)
        scalars["fidelity"] = storage_fidelity(pulse, retrieved)
        scalars["efficiency"] = retrieved.norm_sq() / input_norm
        photons_in = input_norm / p.L
        leaked = stored.boundary_photon_flux / photons_in if photons_in > 0 else 0.0
        scalars["leaked_fraction"] = leaked
        if leaked > 1e-3:
            warnings.warn(
                f"leakage: {leaked:.3g} of the pulse left the medium before storage",
                stacklevel=2,
            )

    return StorageResult(snapshots=snaps, stored=stored, scalars=scalars, feasibility=feas,
                         t_s=t_s, plateau_velocity=v_plateau)


def _rms_width(pulse: SignalEnvelope) -> float:
    """RMS width of the sampled pulse, weighted by |E| so that the samples
    of a ``GaussianPulse`` give its ``rms_width`` sigma."""
    w = np.abs(pulse.samples)
    total = float(np.sum(w))
    if total == 0.0:
        raise ValueError("zero-norm input envelope")
    mean = float(np.sum(pulse.z * w) / total)
    return math.sqrt(float(np.sum((pulse.z - mean) ** 2 * w) / total))


def imbalance_sweep(
    n_total: float,
    etas: Sequence[float],
    sched: ControlSchedule,
    p_base: MediumParams,
    *,
    t_grid: np.ndarray,
) -> list[np.ndarray]:
    """Analytic group-velocity curves v_g/c on ``t_grid``, one per population
    imbalance of ``etas``.

    Each eta = N_b/N_a splits the fixed total N into N_a = N/(1+eta),
    N_b = eta*N/(1+eta) (``population_split``); the velocity uses the
    decay-corrected formula.
    """
    curves = []
    for eta in etas:
        n_a, n_b = population_split(n_total, eta)
        p = replace(p_base, N_a=n_a, N_b=n_b)
        curves.append(velocity_curve(p, sched, t_grid) / p.c)
    return curves


def scaling_exponent(kind: MediumKind, p_base: MediumParams, omega: float,
                     n_grid: np.ndarray) -> float:
    """Log-log slope of (c/v_g - 1) against total atom number."""
    gc2 = p_base.g_tilde**2 * np.array([effective_pair_density(kind, float(n)) for n in n_grid])
    y = slowdown(gc2, omega, p_base.gamma1 * p_base.gamma2)
    if not np.all(np.isfinite(y)):
        raise StoppedLightError("slowdown is infinite: control off and no decay floor")
    if not np.all(y > 0):
        # log(0) would turn the fitted slope into nan
        raise NumericsError(f"{kind.value}: slowdown is 0 on the atom-number scan, "
                            "no exponent to fit")
    slope, _ = np.polyfit(np.log(np.asarray(n_grid, dtype=float)), np.log(y), 1)
    return float(slope)


def medium_comparison(
    n_total: float,
    kinds: Sequence[MediumKind],
    sched: ControlSchedule,
    p_base: MediumParams,
    *,
    t_grid: np.ndarray,
    n_scan: np.ndarray,
) -> tuple[list[np.ndarray], list[float]]:
    """Velocity curves v_g/c on ``t_grid`` and slowdown scaling exponents,
    fitted over the total atom numbers ``n_scan``, one of each per medium
    kind of ``kinds``.

    The balanced effective pair density replaces N_a*N_b in the velocity
    formula; the fitted exponent of (c/v_g - 1) vs N recovers the kind's
    density power (1, 2, 2 or 3).
    """
    curves, exponents = [], []
    for kind in kinds:
        pd = effective_pair_density(kind, n_total)
        curves.append(velocity_curve(p_base, sched, t_grid, pair_density=pd) / p_base.c)
        exponents.append(scaling_exponent(kind, p_base, sched.plateau, n_scan))
    return curves, exponents
