import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from slowmol import cli, dynamics, protocol
from slowmol import reports as reports_mod
from slowmol.cli import main, run
from slowmol.config import load_config
from slowmol.dynamics import half_step_substeps
from slowmol.errors import ConfigError
from slowmol.reports import format_column, write_csv
from conftest import read_csv

KRB_ARGS = ["--set", "medium.g_tilde_rad_per_us=5e-5",
            "--set", "medium.n_a=1.0e6", "--set", "medium.n_b=5.0e6"]


def read_summary(outdir):
    out = {}
    for line in (Path(outdir) / "summary.txt").read_text().splitlines():
        key, _, val = line.partition(" = ")
        out[key] = val
    return out


def test_groupvel_krb_summary_contains_velocity_floor(tmp_path):
    out = tmp_path / "gv"
    assert main(["groupvel", "--out", str(out)] + KRB_ARGS) == 0
    summary = read_summary(out)
    floor = float(summary["velocity_floor_m_per_s"])
    assert floor == pytest.approx(524.0, rel=0.01)
    assert float(summary["velocity_floor_km_per_s"]) == pytest.approx(0.524, rel=0.01)
    header, cols = read_csv(out / "velocity_curve.csv")
    assert header == ["t_us", "omega_rad_per_us", "vg_over_c"]
    assert (out / "config.txt").exists()


def test_imbalance_writes_curves_and_manifest(tmp_path):
    out = tmp_path / "imb"
    code = main(["imbalance", "--out", str(out),
                 "--set", "sweep.etas=1,2,15"])
    assert code == 0
    manifest = (out / "manifest.csv").read_text().splitlines()
    assert manifest[0] == "curve_id,eta_or_kind,file"
    assert len(manifest) == 4
    for line in manifest[1:]:
        fname = line.split(",")[2]
        assert (out / fname).exists()
        header, _ = read_csv(out / fname)
        assert header == ["t_us", "omega_rad_per_us", "vg_over_c"]


def test_mediums_reports_exponents(tmp_path):
    out = tmp_path / "med"
    assert main(["mediums", "--out", str(out)]) == 0
    summary = read_summary(out)
    assert float(summary["scaling_exponent_atomic_eit"]) == pytest.approx(1.0, abs=1e-6)
    assert float(summary["scaling_exponent_heteronuclear_trimer"]) == pytest.approx(
        3.0, abs=1e-6)


def test_feasibility_summary(tmp_path):
    out = tmp_path / "feas"
    assert main(["feasibility", "--out", str(out)] + KRB_ARGS) == 0
    summary = read_summary(out)
    assert float(summary["gamma1_inverse_ms"]) == pytest.approx(1.64, abs=0.01)
    assert (out / "feasibility.csv").exists()


def test_store_with_desk_preset(tmp_path):
    out = tmp_path / "store"
    code = main(["store", "--out", str(out), "--set", "preset=desk-storage",
                 "--set", "grid.n_z=512", "--set", "grid.t_end_us=60",
                 "--set", "schedule.t_down_us=5", "--set", "schedule.t_up_us=55",
                 "--set", "schedule.rate_per_us=0.5",
                 "--set", "grid.snapshot_stride=50"])
    assert code == 0
    summary = read_summary(out)
    assert float(summary["fidelity"]) > 0.95
    assert float(summary["mapping_residual"]) < 0.03
    assert int(summary["outer_steps"]) == 307
    assert summary["matter_step"] == "split"
    assert int(summary["matter_substeps"]) >= 2 * 307
    assert float(summary["cfl"]) == 1.0
    for q in ("q1", "q2", "q3"):
        assert float(summary[f"charge_drift_{q}"]) <= 1e-6
    header, _ = read_csv(out / "storage_report.csv")
    assert header == ["z_um", "re_E_in", "im_E_in", "re_phig_stored",
                      "im_phig_stored", "re_E_out", "im_E_out"]
    manifest = (out / "snapshots" / "snapshots.csv").read_text().splitlines()
    assert manifest[0] == "index,t_us,file"
    for line in manifest[1:]:
        assert (out / "snapshots" / line.split(",")[2]).exists()


def test_propagate_snapshot_dump(tmp_path):
    out = tmp_path / "prop"
    settings = ["preset=desk-storage", "grid.n_z=256", "grid.t_end_us=10",
                "grid.snapshot_stride=20"]
    code = main(["propagate", "--out", str(out),
                 *[arg for setting in settings for arg in ("--set", setting)]])
    assert code == 0
    header, cols = read_csv(out / "snapshot_00000.csv")
    assert header[:3] == ["z_um", "re_E", "im_E"]
    assert len(header) == 11  # z plus re/im of five fields
    summary = read_summary(out)
    travel = float(summary["travel_measured_um"])
    predicted = float(summary["travel_predicted_um"])
    assert travel == pytest.approx(predicted, rel=0.05)
    # what the integrator did
    config = load_config(None, ["experiment=propagate", *settings])
    grid, p = config.to_grid(), config.to_medium_params()
    outer = int(summary["outer_steps"])
    assert outer == round(10.0 / grid.dt) == 26
    assert float(summary["cfl"]) == p.c * grid.dt / grid.dz
    fixed_rule = half_step_substeps(0.0, config.to_schedule(), p, grid)
    assert 2 * outer <= int(summary["matter_substeps"]) <= fixed_rule.sum()
    for q in ("q1", "q2", "q3"):
        assert 0.0 <= float(summary[f"charge_drift_{q}"]) <= 1e-6
    assert list(summary)[-7:] == ["outer_steps", "matter_step", "matter_substeps", "cfl",
                                  "charge_drift_q1", "charge_drift_q2", "charge_drift_q3"]
    assert summary["matter_step"] == "split"


def test_propagate_reports_but_never_gates_the_drift_of_a_dissipative_scheme(tmp_path):
    # MUSCL at cfl < 1 dissipates the photon term, so Q3 drifts far above 1e-6
    out = tmp_path / "prop"
    code = main(["propagate", "--out", str(out), "--set", "preset=desk-storage",
                 "--set", "grid.n_z=256", "--set", "grid.t_end_us=10",
                 "--set", "grid.snapshot_stride=20", "--set", "run.advection=muscl",
                 "--set", "grid.cfl=0.7"])
    assert code == 0
    summary = read_summary(out)
    assert float(summary["cfl"]) == pytest.approx(0.7, rel=1e-12)
    assert float(summary["charge_drift_q3"]) > 1e-4


def test_gpe_split_outputs(tmp_path):
    out = tmp_path / "split"
    code = main(["gpe-split", "--out", str(out),
                 "--set", "gpegrid.t_end_us=6",
                 "--set", "gpegrid.snapshot_stride=100"])
    assert code == 0
    summary = read_summary(out)
    assert summary["succeeded"] == "true"
    assert summary["n_persistent"] == "2" and summary["separation_monotone"] == "true"
    assert float(summary["norm_drift"]) <= 1e-10 * 6.0  # criterion 7, 6 us
    assert float(summary["energy_drift"]) <= 1e-6
    assert 0.0 < float(summary["max_spectral_tail_fraction"]) <= 1e-8  # no aliasing warned
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t_us,dip_index,z_um,speed_um_per_us"
    assert (out / "separation.csv").exists()


# the summary lines of a GPE run that only the self-consistent equation meets:
# the analytic soliton's speed (and depth), and the energy of
# energy_functional, whose (U_gg/2)|psi|^4 term a frozen evolution does not conserve
SELF_CONSISTENT_ONLY = {
    "gpe-soliton": {"expected_speed_um_per_us", "expected_min_density", "energy_drift"},
    "gpe-split": {"v_expected", "param_v_expected", "energy_drift"},
}


def _claims_of_each_nonlinearity(experiment, outs):
    """The summaries of the self-consistent and the frozen run, after checking
    that the frozen one lacks exactly the self-consistent claims."""
    consistent, frozen = (read_summary(outs[mode]) for mode in ("self-consistent", "frozen"))
    assert SELF_CONSISTENT_ONLY[experiment] <= set(consistent)
    assert set(frozen) == set(consistent) - SELF_CONSISTENT_ONLY[experiment]
    assert "norm_drift" in frozen
    return consistent, frozen


def test_gpe_split_evolves_under_the_configured_nonlinearity(tmp_path):
    outs = {mode: tmp_path / mode for mode in ("self-consistent", "frozen")}
    for mode, out in outs.items():
        assert main(["gpe-split", "--out", str(out), "--set", "gpegrid.t_end_us=4",
                     "--set", f"gpe.nonlinearity={mode}"]) == 0
    consistent, frozen = _claims_of_each_nonlinearity("gpe-split", outs)
    assert frozen["v_right"] != consistent["v_right"]
    assert ((outs["frozen"] / "separation.csv").read_bytes()
            != (outs["self-consistent"] / "separation.csv").read_bytes())


def test_a_frozen_gpe_soliton_claims_no_self_consistent_expectation(tmp_path):
    outs = {mode: tmp_path / mode for mode in ("self-consistent", "frozen")}
    for mode, out in outs.items():
        assert main(["gpe-soliton", "--out", str(out), "--set", "gpegrid.t_end_us=1",
                     "--set", "gpegrid.snapshot_stride=100",
                     "--set", f"gpe.nonlinearity={mode}"]) == 0
    consistent, frozen = _claims_of_each_nonlinearity("gpe-soliton", outs)
    assert frozen["min_density_final"] != consistent["min_density_final"]


def test_gpe_soliton_outputs(tmp_path):
    out = tmp_path / "sol"
    code = main(["gpe-soliton", "--out", str(out),
                 "--set", "gpegrid.t_end_us=5",
                 "--set", "gpegrid.snapshot_stride=100"])
    assert code == 0
    summary = read_summary(out)
    assert float(summary["measured_speed_um_per_us"]) == pytest.approx(0.6, rel=0.05)
    assert float(summary["norm_drift"]) <= 1e-10 * 5.0  # criterion 7, 5 us
    assert float(summary["energy_drift"]) <= 1e-6
    assert 0.0 < float(summary["max_spectral_tail_fraction"]) <= 1e-8  # no aliasing warned
    assert summary["n_flagged"] == "0"
    frames = (out / "frames" / "frames.csv").read_text().splitlines()
    assert frames[0] == "index,t_us,file"
    header, _ = read_csv(out / "frames" / "frame_00000.csv")
    assert header == ["z_um", "density", "phase"]


# ------------------------------------------------------------------ exit codes

def test_exit_code_2_on_config_error(tmp_path, capsys):
    assert main(["groupvel", "--out", str(tmp_path / "x"),
                 "--set", "bogus.key=1"]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_exit_code_2_on_bad_invariant(tmp_path, capsys):
    # stopped light: a control plateau of 0 in the lossless desk medium
    stopped = ["preset=desk-storage", "schedule.omega0_rad_per_us=0"]
    table = ["preset=desk-storage", "schedule.form=table", "schedule.table_times_us=0,140",
             "schedule.table_values_rad_per_us=0,0"]
    # the lossless desk medium without coupling stores nothing
    uncoupled = ["preset=desk-storage", "medium.g_tilde_rad_per_us=0"]
    tiny_store = ["grid.n_z=256", "grid.t_end_us=40", "grid.snapshot_stride=10",
                  "schedule.t_down_us=8", "schedule.t_up_us=25", "schedule.rate_per_us=0.5"]
    # a gray soliton needs a repulsive interaction and a background
    no_soliton = ["gpe.u_gg_rad_um_per_us=0", "gpe.u_gg_rad_um_per_us=-1",
                  "gpe.background_amp=0", "gpe.background_amp=1e-200",
                  "gpe.background_amp=1e200"]
    # each factor passes alone, but M U_gg |Phi0|^2 overflows or underflows
    no_healing_width = [["gpe.u_gg_rad_um_per_us=1e200", "gpe.background_amp=1e100"],
                        ["gpe.u_gg_rad_um_per_us=1e-200", "gpe.background_amp=1e-100"],
                        # a subnormal product: its healing width 1/sqrt(...) is infinite
                        ["gpe.u_gg_rad_um_per_us=1e-300", "gpe.background_amp=1e-5"]]
    for experiment, settings, named in [
            ("imbalance", ["sweep.etas=-1"], "sweep.etas"),
            ("imbalance", ["sweep.etas="], "sweep.etas"),
            ("mediums", ["sweep.kinds="], "sweep.kinds"),
            ("groupvel", ["medium.g_tilde_rad_per_us=-1"], "medium: g_tilde"),
            # no optical depth (g_tilde^2 is 0 or underflows), so no spectral window
            ("feasibility", ["medium.g_tilde_rad_per_us=0"], "medium.g_tilde_rad_per_us"),
            ("feasibility", ["medium.g_tilde_rad_per_us=1e-300"], "medium.g_tilde_rad_per_us"),
            ("feasibility", uncoupled, "medium.g_tilde_rad_per_us"),
            ("store", uncoupled + tiny_store, "medium.g_tilde_rad_per_us"),
            # an excited-state decay so fast that the optical depth underflows to 0
            ("feasibility", ["medium.gamma_e_rad_per_us=1e300"], "medium.g_tilde_rad_per_us"),
            ("store", ["medium.gamma_e_rad_per_us=1e300"], "medium.g_tilde_rad_per_us"),
            ("groupvel", stopped, "schedule.omega0_rad_per_us"),
            ("store", stopped, "schedule.omega0_rad_per_us"),
            ("feasibility", stopped, "schedule.omega0_rad_per_us"),
            ("mediums", stopped, "schedule.omega0_rad_per_us"),
            ("groupvel", table, "schedule.table_values_rad_per_us"),
            ("groupvel", ["schedule.form=table", "schedule.table_times_us=0,140",
                          "schedule.table_values_rad_per_us=1,1e300"],
             "schedule: control amplitudes"),
            *[(experiment, [f"{key}=1e300"], named)
              for key, named, experiments in [
                  ("medium.g_tilde_rad_per_us", "medium: g_tilde",
                   ("groupvel", "mediums", "feasibility", "imbalance")),
                  ("schedule.omega0_rad_per_us", "schedule: omega0",
                   ("groupvel", "mediums", "feasibility"))]
              for experiment in experiments],
            *[(experiment, [setting], setting.partition("=")[0])
              for experiment in ("gpe-soliton", "gpe-split") for setting in no_soliton],
            *[(experiment, settings, "gpe.u_gg_rad_um_per_us")
              for experiment in ("gpe-soliton", "gpe-split") for settings in no_healing_width],
            ("gpe-soliton", ["gpe.potential_rad_per_us=0.5"], "gpe.potential_rad_per_us"),
            ("gpe-split", ["soliton.q=1"], "soliton.q"),
            ("mediums", ["sweep.n_total=1e200"], "sweep.n_total"),
            ("imbalance", ["sweep.n_total=1e200"], "sweep.n_total"),
            ("propagate", [*tiny_store, "preset=desk-storage", "pulse.peak_amplitude=0"],
             "pulse.peak_amplitude"),
            ("propagate", [*tiny_store, "preset=desk-storage", "pulse.center_um=1e300"],
             "pulse.center_um"),
            *[(experiment, ["pulse.rms_width_um=1e300"], "pulse: rms_width")
              for experiment in ("store", "propagate")],
            *[(experiment, [*tiny_store, "preset=desk-storage",
                            f"medium.{which}_photon_detuning_rad_per_us=1e300"], named)
              for experiment in ("store", "propagate")
              for which, named in (("one", "|Delta|"), ("two", "|delta|"))],
            # beyond a work cap, stopped before the first step
            ("store", [*tiny_store, "preset=desk-storage", "grid.t_end_us=1e8"],
             "grid.t_end_us"),
            ("gpe-soliton", ["gpegrid.t_end_us=1e7"], "gpegrid.t_end_us"),
            ("propagate", [*tiny_store, "preset=desk-storage", "schedule.omega0_rad_per_us=1e9"],
             "matter substeps"),
            # documented refusals of the document itself
            ("groupvel", ["schedule.form=ramp"], "schedule.form"),
            ("groupvel", ["preset=lab"], "preset"),
            ("mediums", ["sweep.n_scan_min=1e7", "sweep.n_scan_max=1e5"], "sweep.n_scan_min"),
            ("imbalance", ["sweep.etas=a,b"], "sweep.etas"),
            ("groupvel", ["schedule.form=table", "schedule.table_times_us=0,x",
                          "schedule.table_values_rad_per_us=1,1"], "schedule.table_times_us"),
            ("mediums", ["sweep.n_scan_points=1"], "sweep.n_scan_points"),
            # beyond the sample cap, refused before numpy allocates the grid
            ("groupvel", [f"curve.points={10**12}"], "curve.points"),
            ("mediums", [f"sweep.n_scan_points={10**12}"], "sweep.n_scan_points"),
            ("feasibility", ["feasibility.threshold=0"], "feasibility.threshold"),
            ("feasibility", ["feasibility.t_storage_us=-1"], "feasibility.t_storage_us"),
            # a feasibility value that overflows names the key that sets it
            ("feasibility", ["feasibility.t_s_us=1e-320"], "feasibility.t_s_us"),
            ("feasibility", ["feasibility.t_s_us=1e308"], "feasibility.t_s_us"),
            ("feasibility", ["medium.gamma_g_rad_per_us=1e308"], "medium.gamma_g_rad_per_us"),
            ("feasibility", ["medium.gamma_g_rad_per_us=1e-320"], "medium.gamma_g_rad_per_us"),
            # its velocity floor underflows to 0 (the slowdown overflows)
            ("groupvel", ["medium.gamma_g_rad_per_us=1e-320"], "medium.gamma_g_rad_per_us"),
            # a decaying medium whose optical depth overflows is not a lossless one
            *[(experiment, ["medium.gamma_e_rad_per_us=1e-320"], "medium.gamma_e_rad_per_us")
              for experiment in ("feasibility", "store")],
            # gamma2 c underflows to 0: no division by zero
            ("feasibility", ["medium.gamma_e_rad_per_us=5e-324", "medium.c_um_per_us=0.1"],
             "medium.gamma_e_rad_per_us"),
            # the split would square g_tilde L dt beyond the float range
            *[(experiment, [*tiny_store, "preset=desk-storage", "medium.length_um=1e308"],
               "medium.length_um") for experiment in ("store", "propagate")],
            # ... or the outer step dt does, with g_tilde L only 0.6: its keys are named
            ("store", ["preset=desk-storage", "grid.z_max_um=1.7976931348623157e308"],
             "grid.z_min_um, grid.z_max_um, grid.n_z, grid.cfl, medium.c_um_per_us:"),
            ("propagate", ["preset=desk-storage", "grid.z_min_um=-1.7976931348623157e308"],
             "grid.z_min_um, grid.z_max_um, grid.n_z, grid.cfl, medium.c_um_per_us:"),
            ("propagate", ["preset=desk-storage", "grid.dt_us=1e300"], "grid.dt_us:"),
            # the periodic span n_z dz overflows: every norm would be inf
            *[(experiment, ["gpegrid.n_z=64", "gpegrid.t_end_us=0.05",
                            "gpegrid.z_max_um=1.7976931348623157e308"], "gpegrid.z_max_um")
              for experiment in ("gpe-soliton", "gpe-split")],
            ("gpe-soliton", ["gpe.background_decay_per_us=-1"], "gpe.background_decay_per_us"),
            ("gpe-split", ["soliton.seed_separation_widths=-1"],
             "soliton.seed_separation_widths"),
            ("store", ["grid.snapshot_stride=-3"], "grid.snapshot_stride"),
            ("gpe-split", ["gpegrid.snapshot_stride=0"], "gpegrid.snapshot_stride")]:
        args = [arg for setting in settings for arg in ("--set", setting)]
        assert main([experiment, "--out", str(tmp_path / "x"), *args]) == 2
        assert named in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
    # experiments without a soliton do not read the interaction
    for i, setting in enumerate(no_soliton):
        assert main(["groupvel", "--out", str(tmp_path / f"gv{i}"), "--set", setting]) == 0
    for i, settings in enumerate(no_healing_width):
        args = [arg for setting in settings for arg in ("--set", setting)]
        assert main(["groupvel", "--out", str(tmp_path / f"gv_product{i}"), *args]) == 0


def test_an_underflowing_velocity_floor_names_its_own_remedy(tmp_path, capsys):
    # the floor is refused by velocity_floor itself: the remedy must not send
    # the reader back to velocity_floor
    assert main(["groupvel", "--out", str(tmp_path / "x"),
                 "--set", "medium.gamma_g_rad_per_us=1e-320"]) == 2
    err = capsys.readouterr().err
    assert "medium.gamma_g_rad_per_us: the decay floor" in err
    assert "use velocity_floor" not in err


def test_cli_import_loads_no_scipy():
    # nor a process pool: the report writer forks with os alone
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, slowmol.cli; print(sorted(m for m in sys.modules if m.split('.')[0] "
            "in ('scipy', 'multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_the_module_entry_point_runs_and_refuses(tmp_path):
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def slowmol(*args):
        return subprocess.run([sys.executable, "-m", "slowmol", *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True)

    bad = slowmol("groupvel", "--out", "bad", "--set", "medium.bogus=1")
    assert bad.returncode == 2 and "medium.bogus" in bad.stderr
    assert list(tmp_path.iterdir()) == []
    good = slowmol("groupvel", "--out", "gv", "--set", "curve.points=11")
    assert good.returncode == 0 and good.stdout == "wrote gv\n"
    assert sorted(p.name for p in (tmp_path / "gv").iterdir()) == [
        "config.txt", "summary.txt", "velocity_curve.csv"]
    assert len((tmp_path / "gv" / "velocity_curve.csv").read_text().splitlines()) == 12


@pytest.mark.parametrize("key, value", [
    ("medium.n_a", "nan"),
    ("medium.length_um", "inf"),
    ("schedule.rate_per_us", "nan"),
    ("curve.t_end_us", "-inf"),
    ("feasibility.t_s_us", "nan"),
    ("gpegrid.dt_us", "inf"),
    ("sweep.etas", "1,nan"),
])
def test_exit_code_2_on_non_finite_value(tmp_path, capsys, key, value):
    assert main(["groupvel", "--out", str(tmp_path / "x"),
                 "--set", f"{key}={value}"]) == 2
    assert key in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("experiment", ["groupvel", "mediums", "feasibility", "imbalance"])
@pytest.mark.parametrize("key", ["medium.g_tilde_rad_per_us", "medium.n_a", "medium.n_b",
                                 "schedule.omega0_rad_per_us", "medium.length_um",
                                 "medium.c_um_per_us", "feasibility.t_s_us",
                                 "feasibility.t_storage_us", "medium.gamma_g_rad_per_us"])
@pytest.mark.parametrize("value", ["1e-320", "1e-300", "1e-30", "1", "1e30", "1e300", "1e308"])
def test_extreme_values_exit_cleanly(tmp_path, experiment, key, value):
    code = main([experiment, "--out", str(tmp_path / "x"), "--set", f"{key}={value}"])
    assert code in (0, 2, 3, 4)
    files = [path for path in tmp_path.rglob("*") if path.is_file()]
    if code != 0:
        assert files == []
    for path in files:
        assert not re.search(r"\b(nan|inf)\b", path.read_text(encoding="utf-8"), re.I), path.name


def test_lossless_store_exits_3_on_charge_drift(tmp_path, capsys):
    # four substeps turn about 1.5 rad per RK4 step at the plateau: Q3 drifts 5.4e-3
    code = main(["store", "--out", str(tmp_path / "x"), "--set", "preset=desk-storage",
                 "--set", "grid.n_z=256", "--set", "grid.t_end_us=40",
                 "--set", "grid.snapshot_stride=10", "--set", "schedule.t_down_us=8",
                 "--set", "schedule.t_up_us=25", "--set", "schedule.rate_per_us=0.5",
                 "--set", "run.substeps=4"])
    assert code == 3
    err = capsys.readouterr().err
    assert "charge drift 0.00539" in err
    assert "run.substeps = 4" in err
    assert list(tmp_path.iterdir()) == []


def test_automatic_substeps_beyond_the_cap_name_the_fixed_rule(tmp_path, capsys):
    # the 0.1 rad rule bounds the split's substeps as well as RK4's, so a lossless
    # store, which takes the split, and a lossy one, which takes RK4, name it alike
    tiny_store = ["preset=desk-storage", "grid.n_z=64", "grid.t_end_us=40",
                  "schedule.t_down_us=8", "schedule.t_up_us=25", "schedule.rate_per_us=0.5",
                  "medium.n_a=1e300"]
    for decay in ([], ["medium.gamma_g_rad_per_us=0.001"]):
        args = [arg for s in [*tiny_store, *decay] for arg in ("--set", s)]
        assert main(["store", "--out", str(tmp_path / "x"), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: medium: the fastest frequency")
        assert err.rstrip().endswith("reaches 9.49e+148 rad/us, so the fixed 0.1 rad rule "
                                     "takes 3.76e+151 matter substeps (more than 1e+08)")
        assert list(tmp_path.iterdir()) == []


def test_explicit_substeps_beyond_the_cap_exit_2_before_a_step(tmp_path, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("RK4 stepping reached")

    monkeypatch.setattr(dynamics, "_rk4_matter_step", unreachable)
    tiny_store = ["preset=desk-storage", "grid.n_z=64", "grid.t_end_us=40",
                  "schedule.t_down_us=8", "schedule.t_up_us=25", "schedule.rate_per_us=0.5"]
    # 50 half-steps: 2e6 substeps each stay within the 1e8 cap, 1e9 each would not
    for experiment, substeps in (("store", 10**9), ("propagate", 10**9), ("store", 2 * 10**6 + 1)):
        args = [arg for s in [*tiny_store, f"run.substeps={substeps}"] for arg in ("--set", s)]
        assert main([experiment, "--out", str(tmp_path / "x"), *args]) == 2
        err = capsys.readouterr().err
        assert "run.substeps" in err and "RK4 substeps (more than 1e+08)" in err
        assert list(tmp_path.iterdir()) == []
    with pytest.raises(AssertionError, match="RK4 stepping reached"):
        main(["store", "--out", str(tmp_path / "x"),
              *[arg for s in [*tiny_store, "run.substeps=2000000"] for arg in ("--set", s)]])


@pytest.mark.parametrize("experiment, settings, key", [
    ("store", ["preset=desk-storage", "grid.n_z=64", "grid.t_end_us=1e300"], "grid.t_end_us"),
    ("gpe-soliton", ["gpegrid.t_end_us=1e300"], "gpegrid.t_end_us"),
    # t_end/dt overflows to inf, which has no step count to round to
    ("store", ["preset=desk-storage", "grid.n_z=64", "grid.dt_us=1e-300",
               "grid.t_end_us=1e300"], "grid.t_end_us"),
    ("gpe-soliton", ["gpegrid.dt_us=1e-300", "gpegrid.t_end_us=1e300"], "gpegrid.t_end_us"),
])
def test_a_step_cap_error_is_one_short_line(tmp_path, capsys, experiment, settings, key):
    args = [arg for setting in settings for arg in ("--set", setting)]
    assert main([experiment, "--out", str(tmp_path / "x"), *args]) == 2
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and len(err) < 160, err
    assert f"configuration error: {key}: " in err and "steps requested (more than 2e+06)" in err


@pytest.mark.parametrize("experiment, settings, key", [
    ("store", ["preset=desk-storage", "grid.n_z=100000000"], "grid.n_z"),
    ("propagate", ["preset=desk-storage", "grid.n_z=20000", "grid.snapshot_stride=1"],
     "grid.snapshot_stride"),
    ("gpe-soliton", ["gpegrid.n_z=10000000"], "gpegrid.n_z"),
    ("gpe-split", ["gpegrid.n_z=8000", "gpegrid.snapshot_stride=1"], "gpegrid.snapshot_stride"),
])
def test_a_run_beyond_the_held_frames_budget_is_refused_before_it_allocates(
        tmp_path, capsys, experiment, settings, key):
    # validate refuses it: load_config builds no array
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: the run would hold "
                                          r"\S+ frame cells \(more than 1e\+07\)"):
        load_config(None, [f"experiment={experiment}", *settings])
    assert main([experiment, "--out", str(tmp_path / "x"),
                 *[arg for s in settings for arg in ("--set", s)]]) == 2
    assert f"configuration error: {key}: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # an analytic run holds no frames
    load_config(None, ["experiment=groupvel", *settings])


def test_the_reference_runs_fit_the_held_frames_budget():
    desk = load_config(None, ["experiment=store", "preset=desk-storage"])
    gpe = load_config(None, ["experiment=gpe-soliton"])
    assert dynamics.held_frame_cells(desk.to_grid(), desk.grid.snapshot_stride, 5) == 73 * 1024 * 5
    assert dynamics.held_frame_cells(gpe.to_gpe_grid(), gpe.gpegrid.snapshot_stride, 1) == \
        101 * 2048
    # a snapshot after each of its 1432 steps: the desk store still fits
    load_config(None, ["experiment=store", "preset=desk-storage", "grid.snapshot_stride=1"])
    assert dynamics.held_frame_cells(desk.to_grid(), 1, 5) == 1433 * 1024 * 5 \
        <= dynamics.MAX_HELD_CELLS


def test_timings_go_to_stderr_and_leave_the_outputs_alone(tmp_path, capsys):
    settings = ["--set", "gpegrid.n_z=256", "--set", "gpegrid.t_end_us=0.5"]
    assert main(["gpe-soliton", "--out", str(tmp_path / "plain"), *settings]) == 0
    assert "timings" not in capsys.readouterr().err
    assert main(["gpe-soliton", "--out", str(tmp_path / "timed"), "--timings", *settings]) == 0
    err = capsys.readouterr().err
    assert re.fullmatch(r"timings: import \d+\.\d{3} s, config \d+\.\d{3} s, "
                        r"solve \d+\.\d{3} s, write \d+\.\d{3} s\n", err), err
    files = [{p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
             for root in (tmp_path / "plain", tmp_path / "timed")]
    assert len(files[0]) == 10 and files[0] == files[1]  # 6 frames and 4 more files
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain", "timed"]


def test_exit_code_4_on_feasibility_refusal(tmp_path, capsys):
    # full-scale store: the spectral window fails for the default medium
    assert main(["store", "--out", str(tmp_path / "x")]) == 4
    assert "--force" in capsys.readouterr().err


def test_store_gates_at_the_configured_threshold(tmp_path, capsys):
    # the tiny desk store passes every margin at the default 0.1; its
    # compression margin 0.04 fails a threshold of 0.001
    tiny_store = ["preset=desk-storage", "grid.n_z=256", "grid.t_end_us=40",
                  "grid.snapshot_stride=10", "schedule.t_down_us=8", "schedule.t_up_us=25",
                  "schedule.rate_per_us=0.5", "feasibility.threshold=0.001"]
    args = [arg for setting in tiny_store for arg in ("--set", setting)]
    assert main(["store", "--out", str(tmp_path / "refused"), *args]) == 4
    err = capsys.readouterr().err
    assert "margin_compression = 0.04 (fail)" in err
    # the prefix names the gate once, and the margins follow
    assert err.splitlines()[0] == (
        "feasibility gate refused: optical_depth = unbounded; threshold = 0.001; "
        "margin_compression = 0.04 (fail); margin_spectral = 0.0 (pass); "
        "margin_storage = 0.0 (pass)")
    assert list(tmp_path.iterdir()) == []
    out = tmp_path / "forced"
    assert main(["store", "--out", str(out), "--force", *args]) == 0
    summary = read_summary(out)
    assert summary["threshold"] == "0.001"
    assert summary["margin_compression"] == "0.04 (fail)"


def test_exit_code_3_on_numerical_failure(tmp_path, capsys):
    code = main(["propagate", "--out", str(tmp_path / "x"),
                 "--set", "preset=desk-storage",
                 "--set", "grid.n_z=256", "--set", "grid.t_end_us=5",
                 "--set", "schedule.omega0_rad_per_us=8000",
                 "--set", "run.substeps=1"])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err


def test_gpe_split_failure_names_its_diagnostics(tmp_path, capsys):
    code = main(["gpe-split", "--out", str(tmp_path / "split"),
                 "--set", "gpegrid.t_end_us=0.02"])
    assert code == 3
    assert "n_persistent" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_force_flag_overrides_gate(tmp_path):
    out = tmp_path / "forced"
    code = main(["store", "--out", str(out), "--force",
                 "--set", "preset=desk-storage",
                 "--set", "medium.gamma_g_rad_per_us=0.1",
                 "--set", "grid.n_z=256", "--set", "grid.t_end_us=30",
                 "--set", "schedule.t_down_us=4", "--set", "schedule.t_up_us=26",
                 "--set", "schedule.rate_per_us=0.6",
                 "--set", "grid.snapshot_stride=100"])
    assert code == 0
    assert float(read_summary(out)["efficiency"]) < 0.5


def test_refuses_nonempty_output_dir(tmp_path):
    out = tmp_path / "occupied"
    out.mkdir()
    (out / "stale.txt").write_text("old results")
    assert main(["groupvel", "--out", str(out)]) == 2
    assert (out / "stale.txt").exists()  # untouched


def test_an_out_that_is_a_file_exits_2(tmp_path, capsys):
    existing = tmp_path / "results.txt"
    existing.write_text("old results")
    for out in (existing, existing / "sub"):
        assert main(["groupvel", "--out", str(out)]) == 2
        assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [existing]
    assert existing.read_text() == "old results"  # untouched


def test_no_partial_outputs_on_failure(tmp_path):
    out = tmp_path / "failed"
    code = main(["propagate", "--out", str(out),
                 "--set", "preset=desk-storage",
                 "--set", "grid.n_z=256", "--set", "grid.t_end_us=5",
                 "--set", "schedule.omega0_rad_per_us=8000",
                 "--set", "run.substeps=1"])
    assert code == 3
    assert list(tmp_path.iterdir()) == []  # no output and no work directory


def test_rerun_is_byte_identical(tmp_path):
    args = ["imbalance", "--set", "sweep.etas=0.5,1,2"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        outs.append(out)
    for fname in ("manifest.csv", "summary.txt", "curve_eta00.csv",
                  "curve_eta01.csv", "curve_eta02.csv", "config.txt"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


def _capture_sweep(monkeypatch, name):
    """Wrap ``protocol.<name>`` so the time grid it is given and the v_g/c
    curves it returns are kept."""
    captured = {}
    inner = getattr(protocol, name)

    def sweep(*args, **kwargs):
        result = inner(*args, **kwargs)
        captured.update(t=kwargs["t_grid"],
                        curves=result if name == "imbalance_sweep" else result[0])
        return result

    monkeypatch.setattr(protocol, name, sweep)
    return captured


SWEEPS = {"imbalance": ("imbalance_sweep", ["sweep.etas=0.5,1,2,4,8,15"]),
          "mediums": ("medium_comparison", [])}


@pytest.mark.parametrize("experiment", sorted(SWEEPS))
def test_every_curve_is_its_own_series_written_alone(tmp_path, monkeypatch, experiment):
    sweep, settings = SWEEPS[experiment]
    captured = _capture_sweep(monkeypatch, sweep)
    out = tmp_path / experiment
    assert main([experiment, "--out", str(out),
                 *[arg for setting in settings for arg in ("--set", setting)]]) == 0
    files = [line.split(",")[2] for line in
             (out / "manifest.csv").read_text(encoding="utf-8").splitlines()[1:]]
    curves = captured["curves"]
    assert len(files) == len(curves) == {"imbalance": 6, "mediums": 4}[experiment]
    t = captured["t"]
    omega = load_config(None, [f"experiment={experiment}", *settings]).to_schedule().omega(t)
    for name, curve in zip(files, curves):
        write_csv(tmp_path / "alone.csv", cli._CURVE_COLUMNS, [t, omega, curve])
        assert (out / name).read_bytes() == (tmp_path / "alone.csv").read_bytes()


@pytest.mark.parametrize("n_etas", [1, 2, 6])
def test_a_sweep_formats_its_shared_columns_once(tmp_path, monkeypatch, n_etas):
    captured = _capture_sweep(monkeypatch, "imbalance_sweep")
    formatted = []

    def counting(column):
        formatted.append(column)
        return format_column(column)

    for module in (cli, reports_mod):
        monkeypatch.setattr(module, "format_column", counting)
    etas = ",".join(str(2.0**i) for i in range(n_etas))
    settings = [f"sweep.etas={etas}", "curve.points=11"]
    assert main(["imbalance", "--out", str(tmp_path / "imb"),
                 *[arg for setting in settings for arg in ("--set", setting)]]) == 0

    def times(column):
        return sum(col is column for col in formatted)

    curves = captured["curves"]
    assert len(curves) == n_etas
    assert times(captured["t"]) == 1
    omega = load_config(None, ["experiment=imbalance", *settings]).to_schedule().omega(
        captured["t"])
    assert sum(np.array_equal(col, omega) for col in formatted) == 1
    assert [times(curve) for curve in curves] == [1] * n_etas
    assert len(formatted) == 2 + n_etas + 1  # the manifest's eta column is the one other


def test_run_api_rejects_unknown_experiment(tmp_path):
    cfg = load_config(None, [])
    object.__setattr__(cfg, "experiment", "nonsense")
    with pytest.raises(KeyError):
        run(cfg, tmp_path / "x")


def test_config_file_plus_override(tmp_path):
    cfg_file = tmp_path / "krb.cfg"
    cfg_file.write_text("\n".join([
        "medium.g_tilde_rad_per_us = 5e-5",
        "medium.n_a = 1.0e6",
        "medium.n_b = 5.0e6",
    ]) + "\n", encoding="utf-8")
    out = tmp_path / "gv"
    code = main(["groupvel", "--config", str(cfg_file), "--out", str(out),
                 "--set", "curve.points=31"])
    assert code == 0
    assert float(read_summary(out)["velocity_floor_m_per_s"]) == pytest.approx(
        523.5, abs=0.1)
    _, cols = read_csv(out / "velocity_curve.csv")
    assert len(cols["t_us"]) == 31


def test_config_file_completed_by_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("schedule.form = table\nmedium.n_a = 5.0\n", encoding="utf-8")
    out = tmp_path / "gv"
    assert main(["groupvel", "--config", str(cfg_file), "--out", str(out),
                 "--set", "schedule.table_times_us=0,140",
                 "--set", "schedule.table_values_rad_per_us=30,30",
                 "--set", "preset=desk-storage"]) == 0
    written = (out / "config.txt").read_text(encoding="utf-8").splitlines()
    for line in ("preset = desk-storage", "medium.n_a = 5.0", "medium.n_b = 1000.0",
                 "schedule.form = table", "schedule.table_times_us = 0.0,140.0"):
        assert line in written


def test_the_last_preset_is_the_one_that_runs(tmp_path):
    assert main(["groupvel", "--out", str(tmp_path / "plain")]) == 0
    plain = {path.name: path.read_bytes() for path in (tmp_path / "plain").iterdir()}
    cfg_file = tmp_path / "desk.cfg"
    cfg_file.write_text("preset = desk-storage\n", encoding="utf-8")
    for name, args in (("sets", ["--set", "preset=desk-storage", "--set", "preset=none"]),
                       ("file", ["--config", str(cfg_file), "--set", "preset=none"])):
        out = tmp_path / name
        assert main(["groupvel", "--out", str(out), *args]) == 0
        assert "preset = none" in (out / "config.txt").read_text(encoding="utf-8")
        # the default medium ran: every file matches a run without a preset
        assert {path.name: path.read_bytes() for path in out.iterdir()} == plain


@pytest.mark.parametrize("kind", ["missing", "directory", "latin-1"])
def test_an_unreadable_config_file_exits_2(tmp_path, capsys, kind):
    cfg_file = tmp_path / "run.cfg"
    if kind == "directory":
        cfg_file.mkdir()
    elif kind == "latin-1":
        cfg_file.write_bytes("medium.n_a = 5.0 # \xb5m\n".encode("latin-1"))
    out = tmp_path / "out"
    assert main(["groupvel", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert f"configuration error: --config {cfg_file}" in capsys.readouterr().err
    assert not out.exists()


def test_interleaved_runs_to_one_out_dir(tmp_path, monkeypatch):
    # the first run's runner starts and finishes a second run to the same
    # out_dir; the second run must not touch the first one's work directory,
    # and the first must then refuse to move its results over the second's
    out = tmp_path / "deep" / "gv"
    config = load_config(None, ["experiment=groupvel"])
    inner = cli._RUNNERS["groupvel"]
    calls = []

    def interleaving(cfg, writer=None):
        calls.append(cfg)
        if len(calls) == 1:
            run(load_config(None, ["experiment=groupvel", "curve.points=5"]), out)
        return inner(cfg, writer)

    monkeypatch.setitem(cli._RUNNERS, "groupvel", interleaving)
    with pytest.raises(ConfigError, match="gained files"):
        run(config, out)
    assert len(calls) == 2
    assert sorted(p.name for p in out.parent.iterdir()) == ["gv"]
    _, cols = read_csv(out / "velocity_curve.csv")
    assert len(cols["t_us"]) == 5  # the second run's results, intact


RUNNER_CASES = {
    "groupvel": ["run.gnuplot=true"],
    "propagate": ["preset=desk-storage", "grid.n_z=128", "grid.t_end_us=5",
                  "grid.snapshot_stride=20"],
    "store": ["preset=desk-storage", "grid.n_z=256", "grid.t_end_us=40",
              "grid.snapshot_stride=50", "schedule.t_down_us=8",
              "schedule.t_up_us=25", "schedule.rate_per_us=0.5"],
    "imbalance": ["run.gnuplot=true", "curve.points=11"],
    "mediums": ["curve.points=11"],
    "feasibility": [],
    "gpe-soliton": ["gpegrid.n_z=256", "gpegrid.t_end_us=1",
                    "gpegrid.snapshot_stride=50"],
    "gpe-split": ["gpegrid.t_end_us=6", "gpegrid.snapshot_stride=100"],
}


@pytest.mark.parametrize("experiment", sorted(RUNNER_CASES))
def test_runner_report_lists_every_file_written(tmp_path, monkeypatch, experiment):
    inner = cli._RUNNERS[experiment]
    reports = []
    monkeypatch.setitem(cli._RUNNERS, experiment,
                        lambda cfg, writer=None: reports.append(inner(cfg, writer)) or reports[-1])
    config = load_config(None, [f"experiment={experiment}"] + RUNNER_CASES[experiment])
    out = tmp_path / "out"
    run(config, out)
    on_disk = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert set(reports[0].files) == on_disk
    assert "config.txt" in on_disk
