import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from slowmol import cli, protocol
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
    assert int(summary["rk4_substeps"]) >= 2 * 307
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
    assert 2 * outer <= int(summary["rk4_substeps"]) <= fixed_rule.sum()
    for q in ("q1", "q2", "q3"):
        assert 0.0 <= float(summary[f"charge_drift_{q}"]) <= 1e-6
    assert list(summary)[-6:] == ["outer_steps", "rk4_substeps", "cfl", "charge_drift_q1",
                                  "charge_drift_q2", "charge_drift_q3"]


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
    assert summary["succeeded"] == "1.0"
    assert float(summary["norm_drift"]) <= 1e-10 * 6.0  # criterion 7, 6 us
    assert float(summary["energy_drift"]) <= 1e-6
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t_us,dip_index,z_um,speed_um_per_us"
    assert (out / "separation.csv").exists()


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
             "RK4 substeps")]:
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


def test_cli_import_loads_no_scipy():
    # nor a process pool: the report writer forks with os alone
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, slowmol.cli; print(sorted(m for m in sys.modules if m.split('.')[0] "
            "in ('scipy', 'multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


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
                                 "medium.c_um_per_us"])
@pytest.mark.parametrize("value", ["1e-300", "1e-30", "1", "1e30", "1e300"])
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


def test_exit_code_4_on_feasibility_refusal(tmp_path, capsys):
    # full-scale store: the spectral window fails for the default medium
    assert main(["store", "--out", str(tmp_path / "x")]) == 4
    assert "--force" in capsys.readouterr().err


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
    """Wrap ``protocol.<name>`` so the sweep reports it returns are kept."""
    captured = []
    inner = getattr(protocol, name)
    monkeypatch.setattr(protocol, name,
                        lambda *a, **k: captured.extend(inner(*a, **k)) or captured)
    return captured


SWEEPS = {"imbalance": ("imbalance_sweep", ["sweep.etas=0.5,1,2,4,8,15"]),
          "mediums": ("medium_comparison", [])}


@pytest.mark.parametrize("experiment", sorted(SWEEPS))
def test_every_curve_is_its_own_series_written_alone(tmp_path, monkeypatch, experiment):
    sweep, settings = SWEEPS[experiment]
    reports = _capture_sweep(monkeypatch, sweep)
    out = tmp_path / experiment
    assert main([experiment, "--out", str(out),
                 *[arg for setting in settings for arg in ("--set", setting)]]) == 0
    files = [line.split(",")[2] for line in
             (out / "manifest.csv").read_text(encoding="utf-8").splitlines()[1:]]
    assert len(files) == len(reports) == {"imbalance": 6, "mediums": 4}[experiment]
    for name, rep in zip(files, reports):
        write_csv(tmp_path / "alone.csv", cli._CURVE_COLUMNS,
                  [rep.series[k] for k in cli._CURVE_COLUMNS])
        assert (out / name).read_bytes() == (tmp_path / "alone.csv").read_bytes()


@pytest.mark.parametrize("n_etas", [1, 2, 6])
def test_a_sweep_formats_its_shared_columns_once(tmp_path, monkeypatch, n_etas):
    reports = _capture_sweep(monkeypatch, "imbalance_sweep")
    formatted = []

    def counting(column):
        formatted.append(column)
        return format_column(column)

    for module in (cli, reports_mod):
        monkeypatch.setattr(module, "format_column", counting)
    etas = ",".join(str(2.0**i) for i in range(n_etas))
    assert main(["imbalance", "--out", str(tmp_path / "imb"), "--set", f"sweep.etas={etas}",
                 "--set", "curve.points=11"]) == 0

    def times(column):
        return sum(col is column for col in formatted)

    assert len(reports) == n_etas
    for key in ("t_us", "omega_rad_per_us"):
        assert times(reports[0].series[key]) == 1
    assert [times(rep.series["vg_over_c"]) for rep in reports] == [1] * n_etas
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

    def interleaving(cfg):
        calls.append(cfg)
        if len(calls) == 1:
            run(load_config(None, ["experiment=groupvel", "curve.points=5"]), out)
        return inner(cfg)

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
                        lambda cfg: reports.append(inner(cfg)) or reports[-1])
    config = load_config(None, [f"experiment={experiment}"] + RUNNER_CASES[experiment])
    out = tmp_path / "out"
    run(config, out)
    on_disk = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert set(reports[0].files) == on_disk
    assert "config.txt" in on_disk
