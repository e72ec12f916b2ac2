import math

import numpy as np
import pytest

from slowmol import cli, protocol
from slowmol import (
    ConfigError,
    ControlSchedule,
    ExperimentReport,
    FeasibilityRefused,
    Grid1D,
    MediumKind,
    MediumParams,
    NumericsError,
    SignalEnvelope,
    conserved_charges,
    feasibility_check,
    imbalance_sweep,
    medium_comparison,
    run_storage_retrieval,
    scaling_exponent,
    standard_storage_schedule,
    storage_span,
    velocity_curve,
)
from slowmol.dynamics import half_step_substeps
from conftest import constant_schedule, desk_pulse, read_csv


# the curve and scan grids of the default curve and sweep config sections
CURVE_T = np.linspace(0.0, 140.0, 281)
N_SCAN = np.logspace(5, 7, 25)


def fast_storage_schedule():
    """Compressed storage ramp for quick desk runs."""
    return ControlSchedule.tanh_ramp(omega0=10 * math.pi, t_down=5.0,
                                     t_up=55.0, rate=0.5)


# ------------------------------------------------------------- feasibility

def test_krb_feasibility_margins():
    p = MediumParams.krb()
    sched = standard_storage_schedule()
    rep = feasibility_check(p, t_s=1.0, sched=sched, t_storage=110.0)
    # 110 us against the 1.64 ms coherence window
    assert rep.margins["storage"] == pytest.approx(0.067, abs=0.005)
    assert rep.passes("storage")
    assert rep.optical_depth == pytest.approx(
        p.pair_coupling_sq * p.L / (p.gamma2 * p.c), rel=1e-12)


def test_feasibility_infinite_depth_without_excited_decay():
    p = MediumParams(g_tilde=1e-3, L=200.0, c=2.0, N_a=100.0, N_b=100.0)
    rep = feasibility_check(p, t_s=1.0, sched=fast_storage_schedule(),
                            t_storage=50.0)
    assert math.isinf(rep.optical_depth)
    assert rep.margins["spectral"] == 0.0
    assert rep.passes("spectral")


def test_feasibility_long_pulse_fails_compression():
    p = MediumParams(g_tilde=1e-3, L=200.0, c=2.0, N_a=100.0, N_b=100.0)
    rep = feasibility_check(p, t_s=1e9, sched=fast_storage_schedule(),
                            t_storage=50.0)
    assert not rep.passes("compression")
    assert not rep.all_ok


def test_feasibility_flag_threshold_consistency():
    p = MediumParams.krb()
    rep = feasibility_check(p, t_s=1.0, sched=standard_storage_schedule(),
                            t_storage=110.0, threshold=0.01)
    for key, margin in rep.margins.items():
        assert (margin < rep.threshold) == rep.passes(key)


def test_feasibility_validates_inputs():
    p = MediumParams.krb()
    with pytest.raises(ValueError):
        feasibility_check(p, t_s=0.0, sched=standard_storage_schedule(),
                          t_storage=1.0)


def test_storage_span_of_standard_schedule():
    lo, hi = storage_span(standard_storage_schedule(), 140.0)
    assert 15.0 < lo < 35.0
    assert 105.0 < hi < 125.0


# --------------------------------------------------------------- velocity curve

def test_velocity_curve_matches_pointwise_formula():
    p = MediumParams.krb()
    sched = standard_storage_schedule()
    t = np.linspace(0.0, 140.0, 57)
    vg = velocity_curve(p, sched, t)
    om = np.asarray(sched.omega(t))
    expected = p.c / (1.0 + p.pair_coupling_sq / (om**2 + p.gamma1 * p.gamma2))
    np.testing.assert_allclose(vg, expected, rtol=1e-14)


def test_velocity_curve_drops_to_floor_and_recovers():
    from slowmol import velocity_floor
    p = MediumParams.krb()
    sched = standard_storage_schedule()
    t = np.linspace(0.0, 140.0, 1401)
    vg = velocity_curve(p, sched, t)
    floor = velocity_floor(p)
    # the floor is reached once the control satisfies omega^2 << gamma1*gamma2,
    # a few ramp widths into the storage window for the KRb rates
    stored = (t > 42.0) & (t < 98.0)
    assert np.all(vg[stored] <= 1.01 * floor)
    assert np.min(vg) >= floor
    assert vg[-1] > 100 * floor  # recovered after the retrieval ramp
    assert vg[0] > 100 * floor


def test_golden_section_matches_a_brute_force_scan():
    from slowmol.protocol import _golden_section

    z = np.linspace(0.0, 100.0, 256)
    stored = np.exp(-((z - 40.0731) ** 2) / 128.0)

    def residual(s):
        return float(np.linalg.norm(stored - np.exp(-((z - 40.0 - s) ** 2) / 128.0)))

    x, fx = _golden_section(residual, -0.3, 0.4, xatol=1e-5)
    assert fx == residual(x)
    coarse = np.linspace(-0.3, 0.4, 701)
    c0 = coarse[np.argmin([residual(s) for s in coarse])]
    fine = np.linspace(c0 - 1e-3, c0 + 1e-3, 2001)
    best = fine[np.argmin([residual(s) for s in fine])]
    assert abs(x - best) <= 1e-5
    assert abs(best - 0.0731) <= 1e-6


def test_mapping_residual_of_an_empty_store_is_one():
    from slowmol.protocol import _aligned_mapping_residual

    grid = Grid1D.for_speed(0.0, 200.0, 256, c=2.0, t_end=10.0)
    pulse = desk_pulse(grid)
    assert _aligned_mapping_residual(grid.z, np.zeros(grid.n_z, dtype=complex), pulse) == 1.0
    # a faithful store still aligns to a near-zero residual
    assert _aligned_mapping_residual(grid.z, -pulse.samples, pulse) <= 1e-6


def test_feasibility_refuses_a_medium_without_coupling():
    # lossless (infinite depth) and lossy media alike, g_tilde 0 or underflowing
    for g_tilde, gamma_e in [(0.0, 0.0), (0.0, 1.0), (1e-300, 0.0)]:
        p = MediumParams(g_tilde=g_tilde, L=200.0, c=2.0, N_a=100.0, N_b=100.0,
                         gamma_e=gamma_e)
        with pytest.raises(ConfigError, match="medium.g_tilde_rad_per_us"):
            feasibility_check(p, t_s=1.0, sched=fast_storage_schedule(), t_storage=50.0)


# ------------------------------------------------------------ imbalance sweep

def test_balanced_case_minimizes_velocity_pointwise():
    p = MediumParams.krb()
    sched = standard_storage_schedule()
    etas = [1.0, 2.0, 15.0]
    curves = dict(zip(etas, imbalance_sweep(3.0e6, etas, sched, p, t_grid=CURVE_T)))
    assert np.all(curves[1.0] <= curves[2.0])
    assert np.all(curves[1.0] <= curves[15.0])
    # strong imbalance visibly deviates from the optimum
    assert np.max(curves[15.0] / curves[1.0]) > 2.0


def test_imbalance_symmetry_under_eta_inversion():
    p = MediumParams.krb()
    sched = standard_storage_schedule()
    a, b = imbalance_sweep(3.0e6, [15.0, 1.0 / 15.0], sched, p, t_grid=CURVE_T)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_imbalance_sweep_validates_etas():
    p = MediumParams.krb()
    with pytest.raises(ValueError, match="positive"):
        imbalance_sweep(3.0e6, [1.0, -2.0], standard_storage_schedule(), p, t_grid=CURVE_T)
    with pytest.raises(ValueError):
        imbalance_sweep(-1.0, [1.0], standard_storage_schedule(), p, t_grid=CURVE_T)


def _curve_report(curve: np.ndarray, sched) -> ExperimentReport:
    """A sweep curve as the series of a report, beside the t and Omega columns
    that every curve of a sweep shares."""
    return ExperimentReport(series={
        "t_us": CURVE_T, "omega_rad_per_us": sched.omega(CURVE_T), "vg_over_c": curve})


def test_sweep_is_deterministic(tmp_path):
    p = MediumParams.krb()
    sched = standard_storage_schedule()
    files = []
    for run in range(2):
        rep = _curve_report(imbalance_sweep(3.0e6, [2.0], sched, p, t_grid=CURVE_T)[0], sched)
        path = tmp_path / f"curve_{run}.csv"
        rep.write_series_csv(path, ["t_us", "omega_rad_per_us", "vg_over_c"])
        files.append(path.read_bytes())
    assert files[0] == files[1]


# ----------------------------------------------------------- medium comparison

def test_scaling_exponents_per_kind():
    p = MediumParams.krb()
    n_grid = np.logspace(5, 7, 25)
    expected = {MediumKind.ATOMIC_EIT: 1.0, MediumKind.HOMONUCLEAR_DIMER: 2.0,
                MediumKind.HETERONUCLEAR_DIMER: 2.0,
                MediumKind.HETERONUCLEAR_TRIMER: 3.0}
    for kind, slope in expected.items():
        assert scaling_exponent(kind, p, 10 * math.pi, n_grid) == pytest.approx(
            slope, abs=1e-6)


def test_scaling_exponent_refuses_a_vanishing_slowdown():
    # g_tilde^2 underflows to 0: log(0) would make the fitted slope nan
    for g_tilde in (0.0, 1e-300):
        p = MediumParams(g_tilde=g_tilde)
        with pytest.raises(NumericsError, match="heteronuclear-dimer"):
            scaling_exponent(MediumKind.HETERONUCLEAR_DIMER, p, 10 * math.pi,
                             np.logspace(5, 7, 5))


def test_medium_comparison_ordering_at_large_n():
    p = MediumParams.krb()
    sched = standard_storage_schedule()
    curves, _ = medium_comparison(3.0e6, list(MediumKind), sched, p, t_grid=CURVE_T,
                                  n_scan=N_SCAN)
    curves = dict(zip([kind.value for kind in MediumKind], curves))
    assert np.all(curves["heteronuclear-trimer"] <= curves["heteronuclear-dimer"])
    assert np.all(curves["heteronuclear-dimer"] <= curves["atomic-eit"])
    assert np.all(curves["homonuclear-dimer"] <= curves["atomic-eit"])


def test_medium_comparison_reports_exponents():
    p = MediumParams.krb()
    _, exponents = medium_comparison(3.0e6, [MediumKind.ATOMIC_EIT],
                                     standard_storage_schedule(), p, t_grid=CURVE_T,
                                     n_scan=N_SCAN)
    assert exponents == [pytest.approx(1.0, abs=1e-6)]


# --------------------------------------------------------- storage/retrieval

def desk_params(**kw):
    base = dict(g_tilde=3.0e-3, L=200.0, c=2.0, N_a=1000.0, N_b=1000.0)
    base.update(kw)
    return MediumParams(**base)


def test_storage_retrieval_quick_run():
    p = desk_params()
    grid = Grid1D.for_speed(0.0, 200.0, 512, c=p.c, t_end=60.0)
    pulse = desk_pulse(grid, center=40.0, width=8.0, amplitude=1.0)
    sched = fast_storage_schedule()
    rep = run_storage_retrieval(p, sched, pulse, grid, snapshot_stride=20)
    assert rep.scalars["fidelity"] > 0.95
    assert rep.scalars["mapping_residual"] < 0.03
    assert rep.scalars["efficiency"] == pytest.approx(1.0, abs=0.05)
    assert rep.scalars["leaked_fraction"] < 1e-6
    assert rep.feasibility.all_ok
    # the stored snapshot is one of the run's, which span the whole schedule,
    # and the plateau velocity is the analytic curve's at the plateau
    assert any(s is rep.stored for s in rep.snapshots)
    assert rep.snapshots[0].t == 0.0 and grid.t_end <= rep.snapshots[-1].t < grid.t_end + grid.dt
    assert rep.plateau_velocity == pytest.approx(
        velocity_curve(p, constant_schedule(sched.plateau), np.array([0.0]))[0], rel=1e-12)


def test_storage_reports_its_step_counts_and_charge_drifts():
    p = desk_params()
    grid = Grid1D.for_speed(0.0, 200.0, 256, c=p.c, t_end=40.0)
    sched = ControlSchedule.tanh_ramp(omega0=10 * math.pi, t_down=8.0, t_up=25.0,
                                      rate=0.5)
    rep = run_storage_retrieval(p, sched, desk_pulse(grid), grid, snapshot_stride=10)
    counts = half_step_substeps(0.0, sched, p, grid)
    assert counts.min() < counts.max()
    assert rep.scalars["outer_steps"] == round(40.0 / grid.dt) == len(counts) // 2
    # the split substeps the lossless run took under its drift control: at least
    # one per half-step, at most the fixed rule's
    taken = rep.snapshots[-1].matter_substeps
    assert len(counts) <= rep.scalars["matter_substeps"] == taken <= counts.sum()
    assert rep.scalars["cfl"] == grid.cfl(p.c)
    # worst relative drift over the snapshots, one charge at a time
    q0 = conserved_charges(rep.snapshots[0], p)
    for i in range(3):
        worst = max(abs(conserved_charges(s, p)[i] + (s.boundary_photon_flux if i == 2 else 0.0)
                        - q0[i]) / abs(q0[i]) for s in rep.snapshots)
        assert rep.scalars[f"charge_drift_q{i + 1}"] == worst
        assert worst <= 1e-6
    # the split conserves Q3 and Q1 - Q2 to rounding: its error shows in Q1
    assert rep.scalars["charge_drift_q3"] <= 1e-12
    assert 0.0 < rep.scalars["charge_drift_q1"] <= 0.5e-6
    # the summary that cli.run_store writes
    params = {"t_store": rep.stored.t, "t_s": rep.t_s, "plateau_velocity": rep.plateau_velocity}
    lines = cli.summary_lines("store", params, rep.scalars) + cli.feasibility_lines(rep.feasibility)
    assert f"matter_substeps = {taken}" in lines
    assert "matter_step = split" in lines
    assert f"outer_steps = {len(counts) // 2}" in lines


def test_lossy_storage_reports_a_drift_that_a_lossless_run_refuses():
    # the lossless run with these settings exits 3 (tests/test_cli.py); with
    # decay the charges are not conserved, so the drift is only reported
    p = desk_params(gamma_e=1e-3)
    grid = Grid1D.for_speed(0.0, 200.0, 256, c=p.c, t_end=40.0)
    sched = ControlSchedule.tanh_ramp(omega0=10 * math.pi, t_down=8.0, t_up=25.0,
                                      rate=0.5)
    rep = run_storage_retrieval(p, sched, desk_pulse(grid), grid, substeps=4, force=True)
    assert rep.scalars["charge_drift_q3"] > 1e-6


def test_the_drift_gate_names_the_step_that_ran(monkeypatch):
    real = protocol.integration_diagnostics
    monkeypatch.setattr(protocol, "integration_diagnostics",
                        lambda *args: {**real(*args), "charge_drift_q1": 1e-3})
    p = desk_params()
    grid = Grid1D.for_speed(0.0, 200.0, 64, c=p.c, t_end=5.0)
    sched = ControlSchedule.tanh_ramp(omega0=10 * math.pi, t_down=8.0, t_up=25.0,
                                      rate=0.5)
    pulse = desk_pulse(grid)
    with pytest.raises(NumericsError, match=r"exceeds 1e-06 with the automatic split step; "
                                            r"set a positive run\.substeps to take RK4"):
        run_storage_retrieval(p, sched, pulse, grid, force=True)
    with pytest.raises(NumericsError, match=r"exceeds 1e-06 at run\.substeps = 16; "
                                            r"use more RK4 substeps$"):
        run_storage_retrieval(p, sched, pulse, grid, force=True, substeps=16)


def test_storage_gate_refuses_then_force_runs():
    # strong ground-molecule decay wrecks the storage window
    p = desk_params(gamma_g=0.1)
    grid = Grid1D.for_speed(0.0, 200.0, 256, c=p.c, t_end=60.0)
    pulse = desk_pulse(grid)
    with pytest.raises(FeasibilityRefused):
        run_storage_retrieval(p, fast_storage_schedule(), pulse, grid)
    rep = run_storage_retrieval(p, fast_storage_schedule(), pulse, grid,
                                force=True, snapshot_stride=50)
    # the stored component decays away: almost nothing is retrieved
    assert rep.scalars["efficiency"] < 1e-2
    assert not rep.feasibility.passes("storage")


def test_storage_leakage_warning():
    p = desk_params()
    grid = Grid1D.for_speed(0.0, 200.0, 256, c=p.c, t_end=60.0)
    pulse = desk_pulse(grid, center=185.0, width=8.0)  # runs off the far edge
    with pytest.warns(UserWarning, match="leakage"):
        rep = run_storage_retrieval(p, fast_storage_schedule(), pulse, grid,
                                    snapshot_stride=50)
    assert rep.scalars["leaked_fraction"] > 1e-3


def test_storage_flags_trivial_input():
    p = desk_params()
    grid = Grid1D.for_speed(0.0, 200.0, 256, c=p.c, t_end=20.0)
    pulse = desk_pulse(grid, amplitude=0.0)
    rep = run_storage_retrieval(p, fast_storage_schedule(), pulse, grid,
                                snapshot_stride=50)
    assert rep.scalars["trivial_input"] == 1.0
    assert "fidelity" not in rep.scalars


def test_storage_warns_outside_the_weak_excitation_regime():
    p = desk_params()
    grid = Grid1D.for_speed(0.0, 200.0, 256, c=p.c, t_end=20.0)
    pulse = desk_pulse(grid, amplitude=4.0)  # peak photon density 0.016 of the atoms'
    with pytest.warns(UserWarning, match="weak-excitation regime .*ratio 0.016"):
        rep = run_storage_retrieval(p, fast_storage_schedule(), pulse, grid,
                                    snapshot_stride=50)
    assert rep.scalars["trivial_input"] is False


def test_a_pulse_without_a_closed_form_is_timed_by_its_sampled_width():
    p = desk_params()
    grid = Grid1D.for_speed(0.0, 200.0, 256, c=p.c, t_end=20.0)
    gaussian = desk_pulse(grid, width=8.0)
    bare = SignalEnvelope(z=grid.z, samples=gaussian.samples)
    # the |E|-weighted width: sigma for an amplitude exp(-z^2/(2 sigma^2)), as the
    # descriptor's rms_width; the left edge, 5 sigma off, clips the |E| tail by 3e-6
    width = protocol._rms_width(bare)
    assert width == pytest.approx(gaussian.descriptor.rms_width, abs=1e-4)
    # 11 sigma from either edge, the width is sigma to rounding wherever the pulse sits
    shifted = SignalEnvelope(z=grid.z, samples=desk_pulse(grid, center=90.0).samples)
    assert protocol._rms_width(shifted) == pytest.approx(8.0, rel=1e-9)
    rep = run_storage_retrieval(p, fast_storage_schedule(), bare, grid, snapshot_stride=50)
    assert rep.t_s == pytest.approx(width / rep.plateau_velocity, rel=1e-15)
    with pytest.raises(ValueError, match="zero-norm"):
        protocol._rms_width(SignalEnvelope(z=grid.z, samples=np.zeros(grid.n_z)))


def test_storage_csv_roundtrip(tmp_path):
    p = MediumParams.krb()
    sched = standard_storage_schedule()
    rep = _curve_report(imbalance_sweep(3.0e6, [1.0], sched, p, t_grid=CURVE_T)[0], sched)
    path = tmp_path / "curve.csv"
    rep.write_series_csv(path, ["t_us", "omega_rad_per_us", "vg_over_c"])
    header, cols = read_csv(path)
    assert header == ["t_us", "omega_rad_per_us", "vg_over_c"]
    np.testing.assert_array_equal(cols["t_us"], rep.series["t_us"])
    np.testing.assert_array_equal(cols["vg_over_c"], rep.series["vg_over_c"])
