"""Experiment drivers: storage/retrieval orchestration, population-imbalance
and medium-kind sweeps, and storage feasibility checks."""

from __future__ import annotations

import math
import warnings
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .dynamics import (
    Grid1D,
    MeanFieldState,
    SignalEnvelope,
    charge_drifts,
    half_step_substeps,
    integrate_mean_field,
    storage_fidelity,
)
from .errors import ConfigError, FeasibilityRefused, NumericsError, StoppedLightError
from .medium import (
    MediumKind,
    MediumParams,
    effective_pair_density,
    group_velocity_with_decay,
    slowdown,
)
from .reports import ExperimentReport, FeasibilityReport
from .schedule import ControlSchedule

# criterion 5: the worst relative drift of Q1, Q2 and Q3 + flux a lossless run accepts
_CHARGE_DRIFT_LIMIT = 1e-6
# the storage span is where the control stays below this fraction of its plateau
_STORAGE_FRACTION = 0.1


def velocity_curve(p: MediumParams, sched: ControlSchedule, t: np.ndarray,
                   *, pair_density: Optional[float] = None) -> np.ndarray:
    """Decay-corrected group velocity sampled along a schedule.

    ``pair_density`` substitutes another effective density product for
    N_a*N_b (used by the medium-kind comparison).  Fully stopped samples
    come out as exactly zero velocity.
    """
    om = np.asarray(sched.omega(t), dtype=float)
    gc2 = p.pair_coupling_sq if pair_density is None else p.g_tilde**2 * pair_density
    return p.c / (1.0 + slowdown(gc2, om, p.gamma1 * p.gamma2))


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
    """
    if t_s <= 0:
        raise ValueError("t_s must be positive")
    if t_storage < 0:
        raise ValueError("t_storage must be nonnegative")
    if p.pair_coupling_sq == 0.0:
        raise ConfigError("medium.g_tilde_rad_per_us: the coupling g_tilde^2 N_a N_b is 0, "
                          "so the medium stores nothing and has no spectral window")
    if p.gamma2 > 0:
        depth = p.pair_coupling_sq * p.L / (p.gamma2 * p.c)
    else:
        depth = math.inf
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
    low = np.asarray(sched.omega(t)) <= _STORAGE_FRACTION * sched.plateau
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
) -> ExperimentReport:
    """Store a signal pulse in the molecular field and retrieve it.

    Runs the mean-field integrator through the full schedule, then reports
    the stored molecular profile (the snapshot nearest the middle of the
    storage span) against -E_in/sqrt(L) (shift-aligned residual), the
    retrieved-vs-input fidelity and efficiency, the analytic velocity
    curve, the feasibility margins, and the run's outer steps, total RK4
    substeps and worst charge drifts.  Refuses to run when the feasibility
    gate fails, unless forced.  A lossless run (every gamma 0) conserves
    the charges, so a worst drift above ``_CHARGE_DRIFT_LIMIT`` raises
    ``NumericsError``; with decay the drift is only reported.
    """
    v_plateau = group_velocity_with_decay(p, sched.plateau)
    width = pulse.descriptor.rms_width if pulse.descriptor is not None else _rms_width(pulse)
    t_s = width / v_plateau
    span = storage_span(sched, grid.t_end)
    feas = feasibility_check(p, t_s, sched, t_storage=span[1] - span[0])
    if not feas.all_ok and not force:
        raise FeasibilityRefused(
            "feasibility gate failed: " + "; ".join(feas.summary_lines())
        )

    if not pulse.wea_admissible(p):
        warnings.warn(
            f"pulse outside the weak-excitation regime "
            f"(photon/atom density ratio {pulse.photon_density_ratio(p):.3g})",
            stacklevel=2,
        )

    s0 = MeanFieldState.polariton_state(grid, p, pulse, float(sched.omega(0.0)))
    snaps = integrate_mean_field(
        s0, sched, p, grid,
        snapshot_stride=snapshot_stride, substeps=substeps, advection=advection,
    )

    t_store = 0.5 * (span[0] + span[1]) if span[1] > span[0] else 0.5 * grid.t_end
    stored = min(snaps, key=lambda s: abs(s.t - t_store))

    counts = half_step_substeps(s0.t, sched, p, grid, substeps)
    scalars: dict[str, float] = {"outer_steps": len(counts) // 2,
                                 "rk4_substeps": int(counts.sum())}
    drifts = charge_drifts(snaps, p)
    for name, drift in zip(("q1", "q2", "q3"), drifts):
        scalars[f"charge_drift_{name}"] = drift
    worst = float(np.max(drifts))
    lossless = p.gamma_a == p.gamma_b == p.gamma_e == p.gamma_g == 0.0
    if lossless and not worst <= _CHARGE_DRIFT_LIMIT:
        raise NumericsError(f"worst charge drift {worst:.3g} of a lossless run exceeds "
                            f"{_CHARGE_DRIFT_LIMIT:g} at run.substeps = {substeps}; "
                            "use more RK4 substeps")
    input_norm = pulse.norm_sq()
    trivial = input_norm == 0.0
    scalars["trivial_input"] = float(trivial)

    sqrtL_phig = math.sqrt(p.L) * stored.phi_g
    if not trivial:
        scalars["mapping_residual"] = _aligned_mapping_residual(grid.z, sqrtL_phig, pulse)
        retrieved = SignalEnvelope(z=grid.z, samples=snaps[-1].E)
        # the retrieved pulse may sit anywhere downstream: search all shifts
        scalars["fidelity"] = storage_fidelity(pulse, retrieved, max_shift=grid.n_z - 1)
        scalars["efficiency"] = retrieved.norm_sq() / input_norm
        photons_in = input_norm / p.L
        leaked = stored.boundary_photon_flux / photons_in if photons_in > 0 else 0.0
        scalars["leaked_fraction"] = leaked
        if leaked > 1e-3:
            warnings.warn(
                f"leakage: {leaked:.3g} of the pulse left the medium before storage",
                stacklevel=2,
            )

    t_curve = np.array([s.t for s in snaps])
    return ExperimentReport(
        kind="store",
        params={"t_store": float(stored.t), "t_s": t_s,
                "plateau_velocity": v_plateau},
        series={
            "t_us": t_curve,
            "omega_rad_per_us": np.asarray(sched.omega(t_curve), dtype=float),
            "vg_over_c": velocity_curve(p, sched, t_curve) / p.c,
        },
        scalars=scalars,
        feasibility=feas,
        profiles={
            "z_um": grid.z,
            "e_in": pulse.samples,
            "phig_stored": stored.phi_g,
            "e_out": snaps[-1].E,
        },
        snapshots=snaps,
    )


def _rms_width(pulse: SignalEnvelope) -> float:
    w = np.abs(pulse.samples) ** 2
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
    t_grid: Optional[np.ndarray] = None,
) -> list[ExperimentReport]:
    """Analytic group-velocity curves for a set of population imbalances.

    Each eta = N_b/N_a splits the fixed total N into N_a = N/(1+eta),
    N_b = eta*N/(1+eta); the velocity uses the decay-corrected formula.
    """
    if n_total <= 0:
        raise ValueError("n_total must be positive")
    for eta in etas:
        if eta <= 0:
            raise ValueError("all imbalance ratios must be positive")
    if t_grid is None:
        t_grid = np.linspace(0.0, 140.0, 281)
    omega = np.asarray(sched.omega(t_grid), dtype=float)
    out = []
    for eta in etas:
        p = replace(p_base, N_a=n_total / (1.0 + eta),
                    N_b=eta * n_total / (1.0 + eta))
        vg = velocity_curve(p, sched, t_grid)
        out.append(ExperimentReport(
            kind="imbalance",
            params={"eta": float(eta), "n_total": float(n_total)},
            series={"t_us": t_grid, "omega_rad_per_us": omega,
                    "vg_over_c": vg / p.c},
            scalars={"min_vg_over_c": float(np.min(vg) / p.c)},
        ))
    return out


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
    t_grid: Optional[np.ndarray] = None,
    n_scan: Optional[np.ndarray] = None,
) -> list[ExperimentReport]:
    """Velocity curves and slowdown scaling exponents per medium kind.

    The balanced effective pair density replaces N_a*N_b in the velocity
    formula; the fitted exponent of (c/v_g - 1) vs N recovers the kind's
    density power (1, 2, 2 or 3).
    """
    if t_grid is None:
        t_grid = np.linspace(0.0, 140.0, 281)
    if n_scan is None:
        n_scan = np.logspace(5, 7, 25)
    omega = np.asarray(sched.omega(t_grid), dtype=float)
    out = []
    for kind in kinds:
        pd = effective_pair_density(kind, n_total)
        vg = velocity_curve(p_base, sched, t_grid, pair_density=pd)
        exponent = scaling_exponent(kind, p_base, sched.plateau, n_scan)
        out.append(ExperimentReport(
            kind="mediums",
            params={"medium_kind": kind.value, "n_total": float(n_total)},
            series={"t_us": t_grid, "omega_rad_per_us": omega,
                    "vg_over_c": vg / p_base.c},
            scalars={"scaling_exponent": exponent,
                     "min_vg_over_c": float(np.min(vg) / p_base.c)},
        ))
    return out
