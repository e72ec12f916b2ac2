"""Tests of the benchmark itself: tiny workloads, the tracer, and proof
that every correctness check fires on a corrupted output.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from runner import Runner  # noqa: E402


def make_runner(tmp_path, requests):
    paths = []
    for i, req in enumerate(requests):
        path = tmp_path / f"c{i}.txt"
        path.write_text(req.text, encoding="utf-8")
        paths.append(path)
    out = tmp_path / "out"
    out.mkdir()
    return Runner(requests, paths, out, ROOT / "tests" / "golden")


@pytest.fixture
def runner_for(tmp_path):
    made = []

    def build(requests):
        made.append(make_runner(tmp_path, requests))
        return made[-1]
    yield build
    for r in made:
        r.close()


def run_keeping_output(runner, i):
    """Run request i through slowmol.cli and leave its output in place."""
    from slowmol import cli

    outdir = runner.work / f"kept{i}"
    cli.run(runner.configs[i], outdir)
    return outdir


# ------------------------------------------------------------ the contract

def test_benchmark_json_names_every_metric_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert spec["paths"] == ["perfbench"]


def test_generation_depends_only_on_the_seed():
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 7)
        assert workloads.digest(a) == workloads.digest(workloads.generate(name, 7))
        assert workloads.digest(a) != workloads.digest(workloads.generate(name, 8))
    mix = workloads.generate("analytic-sweep", 7)
    assert sum(r.golden is not None for r in mix) == len(workloads.GOLDEN_CASES)
    assert {r.label for r in mix} == {"groupvel", "imbalance", "mediums", "feasibility", "wea"}


def test_without_sources_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "store-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


# --------------------------------------------------------- tiny workloads

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_its_checks(runner_for, name):
    runner = runner_for(workloads.generate(name, 3, tiny=True))
    result = runner.run_pass()
    assert [o.problems for o in result.outcomes if o.problems] == []
    assert result.seconds > 0
    assert not any(runner.work.iterdir()), "output directories must be removed"


def test_traced_pass_records_layers_and_restores_the_modules(runner_for):
    import slowmol
    from slowmol import cli, protocol
    from slowmol.schedule import ControlSchedule

    before = (cli.integrate_mean_field, protocol.integrate_mean_field,
              slowmol.integrate_mean_field, ControlSchedule.omega)
    runner = runner_for(workloads.generate("store-desk", 3, tiny=True))
    tracer = runner.tracer = spans.Tracer().install()
    assert cli.integrate_mean_field is not before[0]
    assert protocol.integrate_mean_field is not before[1]
    try:
        result = runner.run_pass()
    finally:
        tracer.restore()
    assert not any(o.problems for o in result.outcomes)
    t = tracer.layer_times()
    assert t["name:cli.run"] > t["name:protocol.run_storage_retrieval"] \
        > t["name:dynamics.integrate_mean_field"] > 0
    assert t["layer:reports"] > 0 and t["calls:reports"] > 10
    assert tracer.counts["dynamics.outer_steps"] > 0
    assert sum(tracer.leaf_calls.values()) > 0
    # the check's own calls (conserved_charges) were paused
    assert "name:dynamics.conserved_charges" not in t
    after = (cli.integrate_mean_field, protocol.integrate_mean_field,
             slowmol.integrate_mean_field, ControlSchedule.omega)
    assert after == before


def test_self_time_subtracts_child_spans():
    tr = spans.Tracer()
    tr.spans = [("cli.run", 0.0, 10.0, -1, 0), ("protocol.x", 1.0, 7.0, 0, 0),
                ("dynamics.y", 2.0, 5.0, 1, 0), ("reports.write_csv", 8.0, 9.0, 0, 0),
                ("reports.write_csv", 8.2, 8.8, 3, 0)]
    tr.leaf_time[1] = 0.5
    tr.leaf_calls[1] = 3
    t = tr.layer_times()
    assert t["self:cli"] == pytest.approx(3.0)
    assert t["self:protocol"] == pytest.approx(2.5)
    assert t["self:dynamics"] == pytest.approx(3.0)
    assert t["layer:reports"] == pytest.approx(1.0)      # nested span not counted twice
    assert t["self:reports"] == pytest.approx(1.0)
    assert t["name:schedule.omega"] == pytest.approx(0.5)


def test_scipy_share_comes_from_the_outermost_scipy_imports():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:       200 |        200 |       scipy._lib",
        "import time:       300 |        500 |     scipy",
        "import time:        40 |        540 |   scipy.integrate",
        "import time:        10 |        700 | slowmol.dynamics",
    ])
    assert bench.scipy_import_seconds(log) == pytest.approx(540e-6)


# ------------------------------------------------- every check must fire

@pytest.fixture
def analytic(runner_for):
    return runner_for(workloads.generate("analytic-sweep", 3, tiny=True))


def test_golden_check_fires_on_one_flipped_byte(analytic):
    i = next(i for i, r in enumerate(analytic.requests) if r.golden == "groupvel")
    outdir = run_keeping_output(analytic, i)
    assert analytic.check(analytic.requests[i], analytic.configs[i], outdir) == []
    path = outdir / "velocity_curve.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    assert analytic.check(analytic.requests[i], analytic.configs[i], outdir)


def test_finite_check_fires_on_an_injected_nan(analytic):
    i = next(i for i, r in enumerate(analytic.requests) if r.label == "imbalance")
    outdir = run_keeping_output(analytic, i)
    assert checks.non_finite(outdir) == []
    path = outdir / "curve_eta00.csv"
    lines = path.read_text().splitlines()
    lines[5] = ",".join(["nan"] + lines[5].split(",")[1:])
    path.write_text("\n".join(lines) + "\n")
    assert checks.non_finite(outdir) == ["non-finite number in curve_eta00.csv"]


def test_exact_infinity_is_accepted_only_where_it_is_defined(tmp_path):
    from slowmol.config import load_config

    (tmp_path / "summary.txt").write_text("optical_depth = inf\nthreshold = 0.1\n")
    lossless = load_config(None, ["preset=desk-storage"])
    lossy = load_config(None, [])
    assert checks.non_finite(tmp_path, checks.exact_infinities(lossless)) == []
    assert checks.non_finite(tmp_path, checks.exact_infinities(lossy))
    (tmp_path / "summary.txt").write_text("optical_depth = inf\nthreshold = inf\n")
    assert checks.non_finite(tmp_path, checks.exact_infinities(lossless))


@pytest.fixture(scope="module")
def tiny_store(tmp_path_factory):
    runner = make_runner(tmp_path_factory.mktemp("store"),
                         workloads.generate("store-desk", 3, tiny=True))
    outdir = run_keeping_output(runner, 0)
    yield runner, outdir, runner._last_report
    runner.close()


def test_store_checks_pass_then_fire_on_low_fidelity(tiny_store, tmp_path):
    runner, outdir, report = tiny_store
    config = runner.configs[0]
    assert checks.store(outdir, report, config, {}) == []
    copy = tmp_path / "store"
    shutil.copytree(outdir, copy)
    summary = copy / "summary.txt"
    text = summary.read_text()
    fidelity = checks.summary_values(copy)["fidelity"]
    summary.write_text(text.replace(f"fidelity = {fidelity}", "fidelity = 0.5"))
    assert any("fidelity" in p for p in checks.store(copy, report, config, {}))
    residual = checks.summary_values(outdir)["mapping_residual"]
    summary.write_text(text.replace(f"mapping_residual = {residual}", "mapping_residual = 0.2"))
    assert any("mapping residual" in p for p in checks.store(copy, report, config, {}))


def test_store_charge_check_fires_on_a_drifting_snapshot(tiny_store):
    runner, outdir, report = tiny_store
    last = report.snapshots[-1]
    bad = replace(report, snapshots=report.snapshots[:-1]
                  + [replace(last, phi_a=last.phi_a * (1 + 1e-5))])
    problems = checks.store(outdir, bad, runner.configs[0], {})
    assert any("charge drift" in p for p in problems)


@pytest.fixture
def tiny_gpe(runner_for):
    runner = runner_for(workloads.generate("gpe-soliton", 3, tiny=True))
    return runner, run_keeping_output(runner, 0)


def test_gpe_checks_fire_on_lost_norm_and_nan(tiny_gpe):
    runner, outdir = tiny_gpe
    config = runner.configs[0]
    assert checks.gpe_soliton(outdir, config, {}) == []
    frame = outdir / "frames" / "frame_00010.csv"
    lines = frame.read_text().splitlines()
    z, dens, phase = lines[100].split(",")
    lines[100] = f"{z},{float(dens) * 1.001!r},{phase}"
    frame.write_text("\n".join(lines) + "\n")
    problems = checks.gpe_soliton(outdir, config, {})
    assert any("norm drift" in p for p in problems)
    assert any("energy drift" in p for p in problems)
    lines[100] = f"{z},nan,{phase}"
    frame.write_text("\n".join(lines) + "\n")
    assert checks.non_finite(outdir) == ["non-finite number in frames/frame_00010.csv"]


def test_gpe_check_fires_on_a_wrong_dip_speed(tiny_gpe):
    runner, outdir = tiny_gpe
    summary = outdir / "summary.txt"
    speed = checks.summary_values(outdir)["measured_speed_um_per_us"]
    summary.write_text(summary.read_text().replace(
        f"measured_speed_um_per_us = {speed}",
        f"measured_speed_um_per_us = {float(speed) * 1.05!r}"))
    assert any("dip speed" in p for p in checks.gpe_soliton(outdir, runner.configs[0], {}))


def test_wea_check_fires_on_a_shifted_centroid(analytic):
    from slowmol import dynamics
    from slowmol.dynamics import GaussianPulse

    i = next(i for i, r in enumerate(analytic.requests) if r.kind == "wea")
    cfg = analytic.configs[i]
    p, sched = cfg.to_medium_params(), cfg.to_schedule()
    env0 = cfg.to_pulse(cfg.to_grid())
    t = cfg.grid.t_end_us
    result = dynamics.wea_propagate(env0, sched, p, t)
    assert checks.wea(env0, result, sched, p, t) == []
    d = result.descriptor
    shift = d.center - env0.descriptor.center
    result.descriptor = GaussianPulse(center=d.center + 1e-6 * shift,
                                      rms_width=d.rms_width, amplitude=d.amplitude)
    assert checks.wea(env0, result, sched, p, t)


@pytest.mark.xfail(strict=True, reason="wea_propagate integrates tabulated schedules "
                   "with fixed 12-node panels and no refinement; on sparse tables it "
                   "misses a converged integral by up to ~1e-4, so the analytic-sweep "
                   "wea queries use tanh ramps only")
def test_wea_on_a_sparse_table_meets_the_oracle_tolerance():
    import numpy as np
    from slowmol import ControlSchedule, Grid1D, MediumParams, SignalEnvelope, dynamics

    p = MediumParams(g_tilde=3.0e-3, L=200.0, c=2.0, N_a=1000.0, N_b=1000.0)
    times = np.linspace(0.0, 140.0, 5)
    omega = 10 * math.pi * (1 - 0.5 * np.tanh(0.2 * (times - 15))
                            + 0.5 * np.tanh(0.2 * (times - 115)))
    sched = ControlSchedule.tabulated(times, omega)
    grid = Grid1D.for_speed(0.0, 200.0, 512, c=p.c, t_end=60.0)
    env0 = SignalEnvelope.gaussian(grid, center=40.0, rms_width=8.0, amplitude=1.0)
    result = dynamics.wea_propagate(env0, sched, p, 60.0)
    assert checks.wea(env0, result, sched, p, 60.0) == []
