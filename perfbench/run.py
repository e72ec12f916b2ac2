"""slowmol benchmark: one seeded workload, timed, checked, one JSON result.

Usage (from the repository root):

    python3 perfbench/run.py --workload store-desk --seed 1 --seconds 20 --trace 0

Workloads: store-desk, gpe-soliton, analytic-sweep (see perfbench/README.md).
``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` spends the first half of ``--seconds`` untraced and the
second half traced, and reports the per-layer metrics, the traced-minus-
untraced ``wall_s`` and the spans (written to .perfbench_work/traces/).

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the lines before it name every metric with its unit and record the run
environment.  Exit code 2 means there is no slowmol source tree to run.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy is imported here or in a child.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = ROOT / "tests" / "golden"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "experiment_s_p50": "s",
    "experiment_s_p99": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "import.scipy_s": "s", "import.slowmol_s": "s", "config.load_s": "s",
    "dynamics.integrate_mean_field_s": "s", "dynamics.outer_steps": "count",
    "dynamics.cell_steps_per_s": "1/s", "dynamics.state_bytes": "bytes-computed",
    "protocol.run_storage_retrieval_self_s": "s",
    "gpe.split_step_evolve_s": "s", "gpe.steps_per_s": "1/s", "gpe.track_minima_s": "s",
    "reports.write_s": "s", "reports.write_calls": "count", "reports.files": "count",
    "reports.bytes": "bytes", "reports.mb_per_s": "MB/s",
    "cli.run_s": "s", "cli.self_s": "s", "protocol.sweep_s": "s",
    "dynamics.wea_propagate_s": "s", "schedule.omega_calls": "count", "schedule.omega_s": "s",
    "config.self_s": "s", "dynamics.self_s": "s", "protocol.self_s": "s",
    "gpe.self_s": "s", "reports.self_s": "s",
    "share.dynamics.integrate_mean_field": "fraction", "share.reports.write": "fraction",
    "share.gpe.split_step_evolve": "fraction", "share.import.scipy": "fraction",
    "trace.wall_s": "s", "trace.overhead_s": "s",
    "dynamics.charge_drift_max": "ratio", "protocol.fidelity": "ratio",
    "protocol.efficiency": "ratio", "protocol.mapping_residual": "ratio",
    "gpe.norm_drift": "1/us", "gpe.energy_drift": "ratio", "gpe.speed_err": "ratio",
}


# ------------------------------------------------------------------ set-up

def scipy_import_seconds(importtime_log: str) -> float:
    """Cumulative time of the outermost scipy imports in ``-X importtime``
    output, i.e. what importing scipy costs inside ``import slowmol.cli``."""
    rows = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative)))
    total_us = 0
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(rows):  # parents precede children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(a[1].startswith("scipy") for a in ancestors):
            total_us += cumulative
        ancestors.append((depth, name))
    return total_us * 1e-6


def measure_setup(config_list: Path, split_imports: bool) -> dict:
    cmd = [sys.executable] + (["-X", "importtime"] if split_imports else [])
    cmd += [str(HERE / "setup_probe.py"), str(config_list)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["total_s"] = out["import_s"] + out["config_load_s"]
    if split_imports:
        out["scipy_s"] = scipy_import_seconds(proc.stderr)
    return out


# ------------------------------------------------------------- timed phase

def timed_passes(runner, budget_s: float, first_id: int = 0) -> list:
    """Repeat the workload's requests while another pass still fits in the
    budget; always at least one pass."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(first_id + len(passes) * len(runner.requests)))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > budget_s:
            return passes


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def end_to_end(setups: list[dict], passes: list) -> dict:
    """``experiment_s_p50`` is the median, over the generated requests, of
    each request's mean time across its repetitions in the run.  Averaging
    the repetitions first keeps the median from jumping between the fast
    and slow phases that a shared machine alternates between;
    ``experiment_s_p99`` is taken over every single execution."""
    samples = [o.seconds for p in passes for o in p.outcomes]
    per_request = zip(*(p.outcomes for p in passes))
    return {
        "setup_s": statistics.median(s["total_s"] for s in setups),
        "wall_s": statistics.median(p.seconds for p in passes),
        "experiment_s_p50": statistics.median(
            statistics.fmean(o.seconds for o in reps) for reps in per_request),
        "experiment_s_p99": percentile(samples, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(setups: list[dict], untraced: list, traced: list, tracer, stats: dict) -> dict:
    n = len(traced)
    t = tracer.layer_times()
    per_pass = {k: v / n for k, v in t.items()}
    counts = {k: v / n for k, v in tracer.counts.items()}
    outcomes = [o for p in traced for o in p.outcomes]
    wall_traced = statistics.median(p.seconds for p in traced)
    wall_untraced = statistics.median(p.seconds for p in untraced)
    mean_pass_s = statistics.fmean(p.seconds for p in traced)  # base of the shares

    def ratio(a, b):
        return a / b if b > 0 else 0.0

    mean_field_s = per_pass.get("name:dynamics.integrate_mean_field", 0.0)
    split_step_s = per_pass.get("name:gpe.split_step_evolve", 0.0)
    write_s = per_pass.get("layer:reports", 0.0)
    out_bytes = sum(o.bytes for o in outcomes) / n
    scipy_s = statistics.median(s["scipy_s"] for s in setups)
    metrics = {
        "import.scipy_s": scipy_s,
        "import.slowmol_s": statistics.median(s["import_s"] - s["scipy_s"] for s in setups),
        "config.load_s": statistics.median(s["config_load_s"] for s in setups),
        "dynamics.integrate_mean_field_s": mean_field_s,
        "dynamics.outer_steps": counts.get("dynamics.outer_steps", 0),
        "dynamics.cell_steps_per_s": ratio(counts.get("dynamics.cell_steps", 0), mean_field_s),
        "dynamics.state_bytes": tracer.counts.get("dynamics.state_bytes", 0),
        "protocol.run_storage_retrieval_self_s":
            per_pass.get("selfname:protocol.run_storage_retrieval", 0.0),
        "gpe.split_step_evolve_s": split_step_s,
        "gpe.steps_per_s": ratio(counts.get("gpe.steps", 0), split_step_s),
        "gpe.track_minima_s": per_pass.get("name:gpe.track_minima", 0.0),
        "reports.write_s": write_s,
        "reports.write_calls": per_pass.get("calls:reports", 0),
        "reports.files": sum(o.files for o in outcomes) / n,
        "reports.bytes": out_bytes,
        "reports.mb_per_s": ratio(out_bytes / 1e6, write_s),
        "cli.run_s": per_pass.get("name:cli.run", 0.0),
        "cli.self_s": per_pass.get("self:cli", 0.0),
        "protocol.sweep_s": (per_pass.get("name:protocol.imbalance_sweep", 0.0)
                             + per_pass.get("name:protocol.medium_comparison", 0.0)),
        "dynamics.wea_propagate_s": per_pass.get("name:dynamics.wea_propagate", 0.0),
        "schedule.omega_calls": sum(tracer.leaf_calls.values()) / n,
        "schedule.omega_s": per_pass.get("name:schedule.omega", 0.0),
        "config.self_s": per_pass.get("self:config", 0.0),
        "dynamics.self_s": per_pass.get("self:dynamics", 0.0),
        "protocol.self_s": per_pass.get("self:protocol", 0.0),
        "gpe.self_s": per_pass.get("self:gpe", 0.0),
        "reports.self_s": per_pass.get("self:reports", 0.0),
        "share.dynamics.integrate_mean_field": ratio(mean_field_s, mean_pass_s),
        "share.reports.write": ratio(write_s, mean_pass_s),
        "share.gpe.split_step_evolve": ratio(split_step_s, mean_pass_s),
        "share.import.scipy": ratio(scipy_s, statistics.median(s["total_s"] for s in setups)),
        "trace.wall_s": wall_traced,
        "trace.overhead_s": wall_traced - wall_untraced,
    }
    for name in ("dynamics.charge_drift_max", "protocol.fidelity", "protocol.efficiency",
                 "protocol.mapping_residual", "gpe.norm_drift", "gpe.energy_drift",
                 "gpe.speed_err"):
        metrics[name] = stats.get(name, 0.0)
    return {k: float(v) for k, v in metrics.items()}


# ------------------------------------------------------------------ record

def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def run_record(args, requests) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "configs_sha256": workloads.digest(requests),
        "requests_per_pass": len(requests), "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


# -------------------------------------------------------------------- main

def run(args, run_dir: Path) -> tuple[dict, dict, dict]:
    requests = workloads.generate(args.workload, args.seed)
    config_dir = run_dir / "configs"
    config_dir.mkdir()
    paths = []
    for i, req in enumerate(requests):
        path = config_dir / f"c{i:05d}.txt"
        path.write_text(req.text, encoding="utf-8")
        paths.append(path)
    config_list = run_dir / "configs.txt"
    config_list.write_text("\n".join(str(p) for p in paths), encoding="utf-8")

    setups = [measure_setup(config_list, split_imports=bool(args.trace))
              for _ in range(SETUP_REPEATS)]

    from runner import Runner
    from spans import Tracer

    out_dir = run_dir / "out"
    out_dir.mkdir()
    runner = Runner(requests, paths, out_dir, GOLDEN)
    try:
        if not args.trace:
            passes = timed_passes(runner, args.seconds)
            metrics = end_to_end(setups, passes)
            all_passes = passes
        else:
            untraced = timed_passes(runner, args.seconds / 2)
            tracer = runner.tracer = Tracer().install()
            try:
                traced = timed_passes(runner, args.seconds / 2,
                                      first_id=len(untraced) * len(requests))
            finally:
                tracer.restore()
            tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.csv")
            metrics = per_layer(setups, untraced, traced, tracer, runner.stats)
            all_passes = untraced + traced
    finally:
        runner.close()

    outcomes = [o for p in all_passes for o in p.outcomes]
    failures = [o for o in outcomes if o.problems]
    summary = {"attempted": len(outcomes), "failed": len(failures),
               "passes": len(all_passes), "samples": len(outcomes),
               "first_failures": [f"{o.label}: {'; '.join(o.problems)}" for o in failures[:5]]}
    return metrics, summary, run_record(args, requests)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "slowmol" / "__init__.py").is_file():
        print(f"perfbench: no slowmol sources at {SRC / 'slowmol'}; "
              "run from the root of a slowmol checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        metrics, summary, record = run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    print("run-record " + json.dumps(record, sort_keys=True))
    for problem in summary["first_failures"]:
        print(f"failed {problem}")
    print(f"passes = {summary['passes']}  experiment samples = {summary['samples']}")
    print(f"failed_fraction = {summary['failed'] / summary['attempted']!r}")
    for name, unit in units.items():
        print(f"metric {name} = {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
