"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured numbers (run with -s or -v to see them)."""

import math
from pathlib import Path

import numpy as np
import pytest

import slowmol as sm
from slowmol.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"


def announce(num, name, detail):
    print(f"ACCEPTANCE {num} {name}: PASS ({detail})")


# ----------------------------------------------------------------- fixtures

def desk_params(**kw):
    base = dict(g_tilde=3.0e-3, L=200.0, c=2.0, N_a=1000.0, N_b=1000.0)
    base.update(kw)
    return sm.MediumParams(**base)


def charge_drifts(snaps, p):
    q0 = sm.conserved_charges(snaps[0], p)
    worst = [0.0, 0.0, 0.0]
    for s in snaps:
        q = sm.conserved_charges(s, p)
        for i in range(3):
            corr = s.boundary_photon_flux if i == 2 else 0.0
            worst[i] = max(worst[i], abs(q[i] + corr - q0[i]) / abs(q0[i]))
    return worst


def storage_run(n_z, substeps=8):
    p = desk_params()
    grid = sm.Grid1D.for_speed(0.0, 200.0, n_z, c=p.c, t_end=140.0)
    pulse = sm.SignalEnvelope.gaussian(grid, center=40.0, rms_width=8.0,
                                       amplitude=1.0)
    sched = sm.standard_storage_schedule()
    rep = sm.run_storage_retrieval(p, sched, pulse, grid,
                                   snapshot_stride=20, substeps=substeps)
    return p, rep


@pytest.fixture(scope="module")
def ideal_storage():
    """Lossless desk-scale storage/retrieval on the 1024-point grid."""
    return storage_run(1024)


@pytest.fixture(scope="module")
def halved_storage():
    """The same run with dz and dt halved (substeps per step fixed)."""
    return storage_run(2048)


@pytest.fixture(scope="module")
def gpe_soliton_units():
    return sm.GpeParams.soliton_units()


# --------------------------------------------------------------- criterion 1

def test_criterion_1_krb_velocity_floor():
    v = sm.velocity_floor(sm.MediumParams.krb())  # um/us == m/s
    assert v == pytest.approx(524.0, rel=0.01)
    announce(1, "krb-velocity-floor", f"{v:.2f} m/s vs 524 m/s")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_scaling_exponents():
    p = sm.MediumParams.krb()
    n_grid = np.logspace(5, 7, 41)
    atomic = sm.scaling_exponent(sm.MediumKind.ATOMIC_EIT, p, 10 * math.pi, n_grid)
    dimer = sm.scaling_exponent(sm.MediumKind.HETERONUCLEAR_DIMER, p,
                                10 * math.pi, n_grid)
    assert atomic == pytest.approx(1.000, abs=1e-3)
    assert dimer == pytest.approx(2.000, abs=1e-3)
    announce(2, "scaling-exponents", f"atomic {atomic:.6f}, dimer {dimer:.6f}")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_balance_optimality():
    p = sm.MediumParams.krb()
    sched = sm.standard_storage_schedule()
    etas = [1 / 15, 1 / 4, 1 / 2, 1.0, 2.0, 4.0, 15.0]
    curves = dict(zip(etas, sm.imbalance_sweep(3.0e6, etas, sched, p,
                                               t_grid=np.linspace(0.0, 140.0, 281))))
    balanced = curves[1.0]
    for eta, curve in curves.items():
        assert np.all(balanced <= curve)
    for eta in (2.0, 4.0, 15.0):
        np.testing.assert_allclose(curves[eta], curves[1.0 / eta], rtol=1e-12)
    announce(3, "balance-optimality",
             "eta=1 minorizes all 7 curves; eta <-> 1/eta identical to 1e-12")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_oracle_equivalence():
    p = desk_params(g_tilde=10 * math.pi / 1000.0)  # unit slowdown ratio
    grid = sm.Grid1D.for_speed(0.0, 200.0, 1024, c=p.c, t_end=30.0)
    pulse = sm.SignalEnvelope.gaussian(grid, center=40.0, rms_width=8.0,
                                       amplitude=1.0)
    # peak sample sits within one cell of the analytic maximum
    assert pulse.photon_density_ratio(p) == pytest.approx(1e-3, rel=1e-3)

    om0 = 10 * math.pi
    ts = np.linspace(0.0, 30.0, 601)
    om = np.where(ts <= 20.0,
                  om0 * (1 - 0.2 * (1 - np.cos(math.pi * ts / 20.0))),
                  0.6 * om0)
    sched = sm.ControlSchedule.tabulated(ts, om)
    # adiabaticity of the ramp: |dOmega/dt| / Omega^2 stays tiny
    dom = np.abs(np.gradient(om, ts))
    assert np.max(dom / om**2) < 0.01

    s0 = sm.MeanFieldState.polariton_state(grid, p, pulse, float(sched.omega(0.0)))
    snaps = sm.integrate_mean_field(s0, sched, p, grid, snapshot_stride=50)
    last = snaps[-1]

    oracle = sm.wea_propagate(pulse, sched, p, last.t)
    travel_meas = sm.pulse_center(grid.z, last.E) - sm.pulse_center(grid.z, snaps[0].E)
    travel_pred = oracle.descriptor.center - pulse.descriptor.center
    delay_err = abs(travel_meas - travel_pred) / travel_pred
    assert delay_err < 0.05

    peak_meas = float(np.max(np.abs(last.E)) / np.max(np.abs(snaps[0].E)))
    theta0 = sm.mixing_angle(p, float(sched.omega(0.0)))
    theta_t = sm.mixing_angle(p, float(sched.omega(last.t)))
    peak_pred = math.cos(theta_t) / math.cos(theta0)
    amp_err = abs(peak_meas - peak_pred) / peak_pred
    assert amp_err < 0.05
    announce(4, "oracle-equivalence",
             f"delay error {delay_err:.2%}, amplitude error {amp_err:.2%}")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_conservation_suite(ideal_storage, halved_storage):
    p, rep = ideal_storage
    drifts = charge_drifts(rep.snapshots, p)
    for i, d in enumerate(drifts):
        assert d <= 1e-6, f"Q{i + 1} drift {d:.3e}"

    # matter step: halving dz (and with it dt) cuts the drift by at least
    # the nominal fourth-order factor of 16
    p2, rep2 = halved_storage
    drifts2 = charge_drifts(rep2.snapshots, p2)
    ratio = drifts[2] / drifts2[2]
    assert ratio >= 16.0

    # advection at cfl < 1: genuine upwind dissipation scales as O(dz)
    def upwind_drift(n_z):
        pa = desk_params(g_tilde=0.0, N_a=1.0, N_b=1.0)
        grid = sm.Grid1D.for_speed(0.0, 200.0, n_z, c=pa.c, t_end=5.0, cfl=0.5)
        pulse = sm.SignalEnvelope.gaussian(grid, center=40.0, rms_width=8.0,
                                           amplitude=1.0)
        s0 = sm.MeanFieldState.uniform_medium(grid, pa, pulse)
        sched = sm.ControlSchedule.tabulated([0.0, 100.0], [1.0, 1.0])
        snaps = sm.integrate_mean_field(s0, sched, pa, grid,
                                        snapshot_stride=10**6, substeps=1)
        q0 = sm.conserved_charges(snaps[0], pa)[2]
        qe = (sm.conserved_charges(snaps[-1], pa)[2]
              + snaps[-1].boundary_photon_flux)
        return abs(qe - q0) / q0

    adv_ratio = upwind_drift(256) / upwind_drift(512)
    assert 1.6 < adv_ratio < 2.4
    announce(5, "conservation-suite",
             f"max drifts {drifts[0]:.1e}/{drifts[1]:.1e}/{drifts[2]:.1e}, "
             f"matter halving x{ratio:.0f}, upwind halving x{adv_ratio:.2f}")


# --------------------------------------------------------------- criterion 6

def test_criterion_6_state_mapping_and_fidelity(ideal_storage):
    p, rep = ideal_storage
    sched = sm.standard_storage_schedule()
    # photonic initial stage precondition
    om_start = float(sched.omega(0.0))
    assert om_start**2 >= 100.0 * p.pair_coupling_sq
    residual = rep.scalars["mapping_residual"]
    fidelity = rep.scalars["fidelity"]
    assert residual <= 0.03
    assert fidelity >= 0.95
    announce(6, "state-mapping",
             f"mapping residual {residual:.2%}, retrieval fidelity {fidelity:.5f}")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_gpe_soliton_suite(gpe_soliton_units):
    p = gpe_soliton_units
    healing_time = 1.0 / (p.u_gg * p.background_amp**2)
    grid = sm.Grid1D(z_min=-50.0, z_max=50.0, n_z=2048, dt=5e-3,
                     t_end=10.0 * healing_time)

    # (a) dark soliton stationary over ten healing times
    dark = sm.soliton_product(
        [sm.SolitonSpec.for_params(p, q=1.0, z0=-25.0),
         sm.SolitonSpec.for_params(p, q=1.0, z0=25.0, direction=-1)], p, grid)
    frames = sm.split_step_evolve(dark, p, grid, snapshot_stride=100)
    trajs = sm.track_minima(frames, background_density=p.background_amp**2)
    assert len(trajs) == 2
    max_drift = max(max(tr.positions) - min(tr.positions) for tr in trajs)
    assert max_drift < grid.dz

    # (d) norm and energy conservation on the same run
    n0 = frames[0].norm()
    e0 = sm.energy_functional(frames[0], p)
    norm_rate = max(abs(f.norm() - n0) / n0 / max(f.t, grid.dt)
                    for f in frames[1:])
    energy_drift = max(abs(sm.energy_functional(f, p) - e0) / abs(e0)
                       for f in frames[1:])
    assert norm_rate <= 1e-10
    assert energy_drift <= 1e-6

    # (b)+(c) gray soliton speed and depletion
    q = 0.8
    v_s = sm.sound_speed(p)
    gray = sm.soliton_product(
        [sm.SolitonSpec.for_params(p, q=q, z0=-20.0, direction=-1),
         sm.SolitonSpec.for_params(p, q=q, z0=20.0, direction=+1)], p, grid)
    gframes = sm.split_step_evolve(gray, p, grid, snapshot_stride=100)
    gtrajs = [tr for tr in sm.track_minima(gframes,
                                           background_density=p.background_amp**2)
              if len(tr) > len(gframes) // 2]
    assert len(gtrajs) == 2
    v_expected = v_s * math.sqrt(1 - q**2)
    speed_errs = [abs(abs(tr.fit_speed()) - v_expected) / v_expected
                  for tr in gtrajs]
    assert max(speed_errs) < 0.02
    min_density = float(gframes[-1].density().min())
    depth_expected = (1 - q**2) * p.background_amp**2
    assert min_density == pytest.approx(depth_expected, rel=0.01)

    announce(7, "gpe-soliton-suite",
             f"dark drift {max_drift:.3f} um < dz {grid.dz:.3f}, "
             f"speed err {max(speed_errs):.2%}, depth {min_density:.4f}, "
             f"norm rate {norm_rate:.1e}, energy drift {energy_drift:.1e}")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_splitting_phenomenology(gpe_soliton_units):
    p = gpe_soliton_units
    grid = sm.Grid1D(z_min=-50.0, z_max=50.0, n_z=2048, dt=5e-3, t_end=12.0)
    rep = sm.soliton_split_experiment(0.8, p, grid, snapshot_stride=40)
    assert rep.scalars["succeeded"] == 1.0
    assert rep.scalars["n_persistent"] == 2.0
    assert rep.scalars["separation_monotone"] == 1.0
    v_exp = rep.scalars["v_expected"]
    err_l = abs(abs(rep.scalars["v_left"]) - v_exp) / v_exp
    err_r = abs(abs(rep.scalars["v_right"]) - v_exp) / v_exp
    assert err_l < 0.05 and err_r < 0.05
    sep = rep.z_right - rep.z_left
    assert sep[-1] > sep[0]
    announce(8, "splitting-phenomenology",
             f"two dips, speeds -{abs(rep.scalars['v_left']):.4f}/"
             f"+{rep.scalars['v_right']:.4f} vs {v_exp:.4f} "
             f"(errors {err_l:.2%}/{err_r:.2%})")


# --------------------------------------------------------------- criterion 9

def test_criterion_9_feasibility_margins_gated():
    p = sm.MediumParams.krb()
    sched = sm.standard_storage_schedule()
    rep = sm.feasibility_check(p, t_s=1.0, sched=sched, t_storage=110.0)
    assert set(rep.margins) == {"storage", "spectral", "compression"}
    assert rep.threshold == 0.1
    for key, margin in rep.margins.items():
        assert (margin < 0.1) == rep.passes(key)
    assert rep.passes("storage")  # 110 us inside the coherence window
    announce(9, "feasibility-margins",
             "three margins computed and gated at 0.1; storage margin "
             f"{rep.margins['storage']:.3f}")


def test_criterion_9_coherence_window_arithmetic():
    # the exact value behind the quoted ~1.6 ms figure
    p = sm.MediumParams.krb()
    gamma1 = p.gamma1
    window_ms = 1e-3 / gamma1  # us -> ms
    assert window_ms == pytest.approx(1.0 / (2 * math.pi * 97) * 1e3, rel=1e-9)
    announce(9, "coherence-window-arithmetic", f"1/gamma1 = {window_ms:.4f} ms")


@pytest.mark.xfail(
    strict=True,
    reason="1/(2*pi*97 Hz) = 1.6408 ms sits 2.55% from the rounded 1.6 ms "
    "target, so a 2% tolerance around the quoted value cannot be met by "
    "correct arithmetic; the exact value is asserted separately above",
)
def test_criterion_9_coherence_window_quoted_tolerance():
    p = sm.MediumParams.krb()
    gamma1 = p.gamma1
    window_ms = 1e-3 / gamma1
    assert window_ms == pytest.approx(1.6, rel=0.02)


# -------------------------------------------------------------- criterion 10

def _run_cli(tmp_path, name, args):
    out = tmp_path / name
    assert cli_main(args + ["--out", str(out)]) == 0
    return out


GOLDEN_CASES = {
    "groupvel": ["groupvel", "--set", "medium.g_tilde_rad_per_us=5e-5",
                 "--set", "medium.n_a=1.0e6", "--set", "medium.n_b=5.0e6",
                 "--set", "curve.points=57"],
    "imbalance": ["imbalance", "--set", "sweep.etas=1,2,15",
                  "--set", "curve.points=57"],
}


def test_criterion_10_determinism_and_golden_files(tmp_path):
    for case, args in GOLDEN_CASES.items():
        first = _run_cli(tmp_path, case + "_a", args)
        second = _run_cli(tmp_path, case + "_b", args)
        names = sorted(f.name for f in first.iterdir())
        assert names == sorted(f.name for f in second.iterdir())
        for fname in names:
            assert (first / fname).read_bytes() == (second / fname).read_bytes(), fname
        golden_dir = GOLDEN / case
        assert golden_dir.is_dir(), "golden outputs missing; regenerate them"
        for ref in sorted(golden_dir.iterdir()):
            assert (first / ref.name).read_bytes() == ref.read_bytes(), ref.name
    announce(10, "determinism-regression",
             "byte-identical reruns; outputs match the pinned golden files")
