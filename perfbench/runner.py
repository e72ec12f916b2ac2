"""Executes workload requests against the slowmol public API, one at a
time (closed loop, one client), timing each call and checking its output.

Only the call into slowmol is timed; the checks and the removal of each
output directory happen after the clock stops.
"""

from __future__ import annotations

import contextlib
import functools
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from spans import Patches
from workloads import Request


@dataclass
class Outcome:
    label: str
    seconds: float
    problems: list[str]
    files: int = 0
    bytes: int = 0


@dataclass
class PassResult:
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)


class Runner:
    """Loads the generated configuration documents and runs them.

    A store request also needs the in-memory report for the charge check,
    so ``protocol.run_storage_retrieval`` is wrapped to keep its return
    value; the wrapper adds one function call per experiment.
    """

    def __init__(self, requests: list[Request], config_paths: list[Path],
                 work: Path, golden_root: Path):
        from slowmol.config import load_config

        self.requests = requests
        self.configs = [load_config(path) for path in config_paths]
        self.work = work
        self.golden_root = golden_root
        self.stats: dict[str, float] = {}
        self.tracer = None
        self._last_report = None
        self._patches = Patches()
        self._install_report_probe()

    def _install_report_probe(self) -> None:
        from slowmol import protocol

        original = protocol.run_storage_retrieval

        @functools.wraps(original)
        def keep_report(*args, **kwargs):
            self._last_report = original(*args, **kwargs)
            return self._last_report

        self._patches.replace_everywhere(lambda obj, _: keep_report,
                                         {original: "protocol.run_storage_retrieval"})

    def close(self) -> None:
        self._patches.restore()

    def run_pass(self, first_id: int = 0) -> PassResult:
        result = PassResult()
        for i, req in enumerate(self.requests):
            if self.tracer is not None:
                self.tracer.experiment = first_id + i
            result.outcomes.append(self.run_one(i))
        return result

    def run_one(self, i: int) -> Outcome:
        req, config = self.requests[i], self.configs[i]
        if req.kind == "wea":
            return self._run_wea(req, config)
        return self._run_cli(req, config, self.work / f"r{i:05d}")

    def _checked(self, check, *args) -> list[str]:
        """Run a check with tracing paused; a check that cannot read the
        output fails the request instead of the benchmark."""
        paused = self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()
        with paused:
            try:
                return check(*args)
            except Exception as exc:  # unreadable output fails the request
                return [f"check raised {type(exc).__name__}: {exc}"]

    def _run_cli(self, req: Request, config, outdir: Path) -> Outcome:
        from slowmol import cli

        shutil.rmtree(outdir, ignore_errors=True)
        self._last_report = None
        start = time.perf_counter()
        try:
            cli.run(config, outdir)
        except Exception as exc:  # any failure of the program is a failed request
            seconds = time.perf_counter() - start
            shutil.rmtree(outdir, ignore_errors=True)
            return Outcome(req.label, seconds, [f"{type(exc).__name__}: {exc}"])
        seconds = time.perf_counter() - start
        problems = self._checked(self.check, req, config, outdir)
        files = checks.output_files(outdir)
        outcome = Outcome(req.label, seconds, problems,
                          len(files), sum(f.stat().st_size for f in files))
        shutil.rmtree(outdir)
        return outcome

    def check(self, req: Request, config, outdir: Path) -> list[str]:
        problems = checks.non_finite(outdir, checks.exact_infinities(config))
        if req.golden is not None:
            problems += checks.golden(outdir, self.golden_root / req.golden)
        if req.label == "store":
            problems += checks.store(outdir, self._last_report, config, self.stats)
        elif req.label == "gpe-soliton":
            problems += checks.gpe_soliton(outdir, config, self.stats)
        return problems

    def _run_wea(self, req: Request, config) -> Outcome:
        from slowmol import dynamics

        p = config.to_medium_params()
        sched = config.to_schedule()
        env0 = config.to_pulse(config.to_grid())
        t = config.grid.t_end_us
        start = time.perf_counter()
        try:
            result = dynamics.wea_propagate(env0, sched, p, t)
        except Exception as exc:  # any failure of the program is a failed request
            return Outcome(req.label, time.perf_counter() - start,
                           [f"{type(exc).__name__}: {exc}"])
        seconds = time.perf_counter() - start
        return Outcome(req.label, seconds,
                       self._checked(checks.wea, env0, result, sched, p, t))

