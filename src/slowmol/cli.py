"""Command-line front end: one runner per experiment, one writer.

Each ``run_<name>(config, writer=None)`` computes an experiment and
returns an ``ExperimentReport`` whose ``files`` hold every output file.  The
library calls return what they compute; this module names the output
files and columns and writes every summary and refusal line.  A solver
experiment hands each frame or snapshot table to ``writer`` (a
``reports.ReportWriter``) as soon as it exists; without one it touches no
disk.  ``run`` gives the runner a writer, finishes it with the report
(``ReportWriter.finish``) and moves the finished directory into place.

Exit codes: 0 success, 2 configuration error (stopped light included),
3 numerical failure, 4 feasibility gate refused.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import _IMPORT_START, protocol
from . import gpe as gpe_mod
from .config import EXPERIMENTS, RunConfig, keyed, load_config, serialize_config
from .dynamics import (
    MeanFieldState,
    amplitude_ratio,
    integrate_mean_field,
    integration_diagnostics,
    pulse_center,
    wea_propagate,
)
from .errors import ConfigError, FeasibilityRefused, NumericsError, StoppedLightError
from .medium import group_velocity_with_decay, mixing_angle, velocity_floor
from .reports import ExperimentReport, ReportWriter, fmt_float, format_column
from .schedule import ControlSchedule

_IMPORTED = time.perf_counter()

_CURVE_COLUMNS = ["t_us", "omega_rad_per_us", "vg_over_c"]


def _curve_grid(config: RunConfig) -> np.ndarray:
    return np.linspace(0.0, config.curve.t_end_us, config.curve.points)


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _report(config: RunConfig, files: dict) -> ExperimentReport:
    """The report of ``files`` plus config.txt."""
    return ExperimentReport(files={"config.txt": serialize_config(config), **files})


def scalar_lines(values: dict) -> list[str]:
    """The ``key = value`` lines of a summary, in the order of ``values``."""
    return [f"{key} = {fmt_float(value)}" for key, value in values.items()]


def summary_lines(kind: str, params: dict, scalars: dict) -> list[str]:
    """A solver experiment's summary: its kind, then its ``param_``-prefixed
    ``params`` and its ``scalars``, each sorted by key."""
    return [f"experiment = {kind}",
            *scalar_lines({f"param_{key}": params[key] for key in sorted(params)}),
            *scalar_lines({key: scalars[key] for key in sorted(scalars)})]


def feasibility_lines(report: protocol.FeasibilityReport) -> list[str]:
    """The depth, threshold and margin lines of the summaries and the refusal."""
    # a medium without excited-state decay has an infinite optical depth
    depth = report.optical_depth if report.optical_depth < math.inf else "unbounded"
    lines = scalar_lines({"optical_depth": depth, "threshold": report.threshold})
    for key in sorted(report.margins):
        ok = "pass" if report.passes(key) else "fail"
        lines.append(f"margin_{key} = {fmt_float(report.margins[key])} ({ok})")
    return lines


def _gnuplot(config: RunConfig, curve_files: list[str]) -> dict:
    if not config.run.gnuplot:
        return {}
    plots = ", ".join(f"'{name}' using 1:3 with lines" for name in curve_files)
    return {"plot.gp": _text([
        "set datafile separator ','", "set key autotitle columnhead",
        "set xlabel 't (us)'", "set ylabel 'v_g / c'", f"plot {plots}"])}


def _curve_files(t: np.ndarray, sched: ControlSchedule, curves: list[np.ndarray],
                 curve_ids: list[str], tags: list, summary: list[str],
                 config: RunConfig) -> dict:
    """One curve CSV per v_g/c curve of a sweep on the times ``t``, their
    manifest, summary and plot.  Every curve shares the columns of ``t`` and
    of Omega(t), formatted once here; each curve's own column is formatted
    only when its file is written."""
    names = [f"curve_{cid}.csv" for cid in curve_ids]
    shared = [format_column(t), format_column(sched.omega(t))]
    files = {name: (_CURVE_COLUMNS, [*shared, curve]) for name, curve in zip(names, curves)}
    files["manifest.csv"] = (["curve_id", "eta_or_kind", "file"],
                             [curve_ids, tags, names])
    files["summary.txt"] = _text(summary)
    return {**files, **_gnuplot(config, names)}


def _frame_table(z_cells: list[str], columns, frame) -> list:
    return [z_cells, *columns(frame)]


class _FrameFiles:
    """A solver's per-frame callback, collecting one CSV per frame; ``close``
    adds the manifest ``<stem>s.csv`` of frame times and returns them all.
    Every frame table opens with the same ``z_um`` column, formatted once
    here; ``columns(frame)`` builds the rest of a frame's table only when
    its file is written.  Each frame's entry is handed to ``writer``, if
    there is one, as soon as the frame exists: the same object that
    ``close`` returns."""

    def __init__(self, prefix: str, stem: str, z: np.ndarray, header: list[str],
                 columns, writer: ReportWriter | None):
        self.prefix, self.stem, self.header = prefix, stem, ["z_um", *header]
        self.z_cells = format_column(z)
        self.columns, self.writer = columns, writer
        self.files, self.times = {}, []

    def __call__(self, frame) -> None:
        name = f"{self.prefix}{self.stem}_{len(self.times):05d}.csv"
        # a partial of a module function: an entry that referred back to this
        # object would make a cycle, keeping the frames until a full collection
        table = functools.partial(_frame_table, self.z_cells, self.columns, frame)
        self.files[name] = entry = (self.header, table)
        self.times.append(frame.t)
        if self.writer is not None:
            self.writer.hand(name, entry)

    def close(self) -> dict:
        names = [f"{self.stem}_{i:05d}.csv" for i in range(len(self.times))]
        self.files[f"{self.prefix}{self.stem}s.csv"] = (["index", "t_us", "file"], [
            list(map(fmt_float, range(len(names)))), self.times, names])
        return self.files


def _snapshot_files(prefix: str, z: np.ndarray, fields: tuple[str, ...],
                    writer: ReportWriter | None) -> _FrameFiles:
    """Mean-field snapshots: z_um, then re_/im_ pairs of ``fields``."""
    header = [f"{part}_{name}" for name in fields for part in ("re", "im")]
    return _FrameFiles(prefix, "snapshot", z, header, lambda snap: [
        part for name in fields for part in (getattr(snap, name).real,
                                             getattr(snap, name).imag)], writer)


def _trajectory_table(tracks) -> tuple[list[str], list]:
    """Dip trajectories from (times, positions) pairs, one dip index each."""
    cols = [[], [], [], []]
    for idx, (t, x) in enumerate(tracks):
        t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
        speed = np.gradient(x, t) if len(t) > 1 else np.zeros_like(x)
        for col, values in zip(cols, (t, [fmt_float(idx)] * len(t), x, speed)):
            col.extend(values)
    return ["t_us", "dip_index", "z_um", "speed_um_per_us"], cols


def run_groupvel(config: RunConfig, writer: ReportWriter | None = None) -> ExperimentReport:
    p = config.to_medium_params()
    sched = config.to_schedule()
    t = _curve_grid(config)
    omega = sched.omega(t)
    vg = protocol.velocity_curve(p, sched, t)
    summary = {
        "plateau_omega_rad_per_us": sched.plateau,
        "mixing_angle_at_plateau_rad": mixing_angle(p, sched.plateau),
        "vg_at_plateau_m_per_s": group_velocity_with_decay(p, sched.plateau),
        "gamma1_rad_per_us": p.gamma1,
        "gamma2_rad_per_us": p.gamma2,
    }
    if p.gamma1 * p.gamma2 > 0:
        # a decay product so small that the floor still underflows to 0
        floor = keyed("medium.gamma_g_rad_per_us", velocity_floor, p)
        summary.update(velocity_floor_m_per_s=floor, velocity_floor_km_per_s=floor * 1e-3)
    else:
        summary["velocity_floor_m_per_s"] = "none (no decay floor)"
    return _report(config, {
        "velocity_curve.csv": (_CURVE_COLUMNS, [t, omega, vg / p.c]),
        "summary.txt": _text(scalar_lines(summary)),
        **_gnuplot(config, ["velocity_curve.csv"]),
    })


def run_propagate(config: RunConfig, writer: ReportWriter | None = None) -> ExperimentReport:
    p = config.to_medium_params()
    sched = config.to_schedule()
    grid = config.to_grid()
    pulse = config.to_pulse(grid)
    # a pulse is located by its centroid: it must be on the grid at the start and the end
    start = keyed("pulse.center_um, pulse.peak_amplitude", pulse_center, grid.z, pulse.samples)
    s0 = MeanFieldState.polariton_state(grid, p, pulse, sched.omega(0.0))
    snapshot_files = _snapshot_files("", grid.z, ("E", "phi_a", "phi_b", "phi_e", "phi_g"),
                                     writer)
    snaps = integrate_mean_field(
        s0, sched, p, grid,
        snapshot_stride=config.grid.snapshot_stride,
        substeps=config.run.substeps, advection=config.run.advection,
        on_snapshot=snapshot_files,
    )
    last = snaps[-1]
    oracle = wea_propagate(pulse, sched, p, last.t)
    travel_meas = keyed("grid.t_end_us", pulse_center, grid.z, last.E) - start
    travel_pred = (keyed("grid.t_end_us", pulse_center, grid.z, oracle.samples)
                   - config.pulse.center_um)
    peak_meas = float(np.max(np.abs(last.E)) / np.max(np.abs(snaps[0].E)))
    peak_pred = amplitude_ratio(p, sched, last.t)
    return _report(config, {
        **snapshot_files.close(),
        "summary.txt": _text(scalar_lines({
            "t_end_us": last.t,
            "travel_measured_um": travel_meas,
            "travel_predicted_um": travel_pred,
            "peak_ratio_measured": peak_meas,
            "peak_ratio_predicted": peak_pred,
            # reported, never gated: a cfl < 1 scheme dissipates Q3 by design
            **integration_diagnostics(snaps, p, grid, config.run.substeps),
        })),
    })


def run_store(config: RunConfig, writer: ReportWriter | None = None) -> ExperimentReport:
    p = config.to_medium_params()
    sched = config.to_schedule()
    grid = config.to_grid()
    pulse = config.to_pulse(grid)
    snapshot_files = _snapshot_files("snapshots/", grid.z, ("E", "phi_g"), writer)
    result = protocol.run_storage_retrieval(
        p, sched, pulse, grid,
        force=config.run.force,
        substeps=config.run.substeps,
        snapshot_stride=config.grid.snapshot_stride,
        advection=config.run.advection,
        threshold=config.feasibility.threshold,
        on_snapshot=snapshot_files,
    )
    stored, e_out = result.stored.phi_g, result.snapshots[-1].E
    t = np.array([s.t for s in result.snapshots])
    params = {"t_store": result.stored.t, "t_s": result.t_s,
              "plateau_velocity": result.plateau_velocity}
    return _report(config, {
        "storage_report.csv": (
            ["z_um", "re_E_in", "im_E_in", "re_phig_stored", "im_phig_stored",
             "re_E_out", "im_E_out"],
            [grid.z, pulse.samples.real, pulse.samples.imag,
             stored.real, stored.imag, e_out.real, e_out.imag]),
        "velocity_curve.csv": (_CURVE_COLUMNS, [
            t, sched.omega(t), protocol.velocity_curve(p, sched, t) / p.c]),
        **snapshot_files.close(),
        "summary.txt": _text(summary_lines(config.experiment, params, result.scalars)
                             + feasibility_lines(result.feasibility)),
    })


def run_imbalance(config: RunConfig, writer: ReportWriter | None = None) -> ExperimentReport:
    p = config.to_medium_params()
    sched = config.to_schedule()
    t = _curve_grid(config)
    etas = config.sweep.etas
    # validate has checked the ratios, so only N_a N_b g_tilde^2 can overflow here
    curves = keyed("sweep.n_total", protocol.imbalance_sweep, config.sweep.n_total,
                   etas, sched, p, t_grid=t)
    ids = [f"eta{i:02d}" for i in range(len(curves))]
    summary = [f"min_vg_over_c_{cid} = {fmt_float(np.min(curve))} (eta = {fmt_float(eta)})"
               for cid, curve, eta in zip(ids, curves, etas)]
    return _report(config, _curve_files(t, sched, curves, ids, etas, summary, config))


def run_mediums(config: RunConfig, writer: ReportWriter | None = None) -> ExperimentReport:
    p = config.to_medium_params()
    sched = config.to_schedule()
    kinds = config.sweep_kinds()
    n_scan = np.logspace(math.log10(config.sweep.n_scan_min),
                         math.log10(config.sweep.n_scan_max),
                         config.sweep.n_scan_points)
    t = _curve_grid(config)
    curves, exponents = protocol.medium_comparison(
        config.sweep.n_total, kinds, sched, p, t_grid=t, n_scan=n_scan)
    names = [kind.value for kind in kinds]
    summary = scalar_lines({f"scaling_exponent_{name.replace('-', '_')}": exponent
                            for name, exponent in zip(names, exponents)})
    return _report(config, _curve_files(t, sched, curves, names, names, summary, config))


# the key to change when a value of the feasibility summary overflows
_FEASIBILITY_KEYS = {"gamma1_inverse_ms": "medium.gamma_g_rad_per_us",
                     "margin_storage": "feasibility.t_storage_us, medium.gamma_g_rad_per_us",
                     "margin_spectral": "feasibility.t_s_us",
                     "margin_compression": "feasibility.t_s_us"}


def run_feasibility(config: RunConfig,
                    writer: ReportWriter | None = None) -> ExperimentReport:
    p = config.to_medium_params()
    rep = protocol.feasibility_check(
        p, config.feasibility.t_s_us, config.to_schedule(),
        config.feasibility.t_storage_us, threshold=config.feasibility.threshold)
    coherence = {"gamma1_inverse_ms": 1e-3 / p.gamma1} if p.gamma1 > 0 else {}
    written = {**coherence, **{f"margin_{key}": margin for key, margin in rep.margins.items()}}
    for name, value in written.items():
        if not math.isfinite(value):
            raise ConfigError(f"{_FEASIBILITY_KEYS[name]}: {name} = {fmt_float(value)} "
                              "is not a finite number")
    names = sorted(rep.margins)
    return _report(config, {
        "summary.txt": _text(scalar_lines(coherence) + feasibility_lines(rep)
                             + scalar_lines({"all_ok": rep.all_ok})),
        "feasibility.csv": (["margin_" + n for n in names],
                            [[rep.margins[n]] for n in names]),
    })


def run_gpe_soliton(config: RunConfig,
                    writer: ReportWriter | None = None) -> ExperimentReport:
    p = config.to_gpe_params()
    grid = config.to_gpe_grid()
    spec = config.to_soliton_spec(gpe_mod.healing_alpha(p))
    # evolve a zero-winding pair: the configured soliton plus a receding
    # opposite-direction partner, so the state fits the periodic grid
    quarter_span = 0.25 * (grid.z_max - grid.z_min)
    partner = replace(spec, z0=spec.z0 - spec.direction * quarter_span,
                      direction=-spec.direction)
    wf0 = gpe_mod.soliton_product([spec, partner], p, grid)
    frame_files = _FrameFiles("frames/", "frame", grid.z, ["density", "phase"],
                              lambda wf: [wf.density(), np.angle(wf.psi)], writer)
    frames = gpe_mod.split_step_evolve(
        wf0, p, grid,
        snapshot_stride=config.gpegrid.snapshot_stride,
        nonlinearity=config.gpe.nonlinearity,
        background_decay_rate=config.gpe.background_decay_per_us,
        on_frame=frame_files,
    )
    trajectories = gpe_mod.track_minima(
        frames, background_density=p.background_amp**2)
    v_s = gpe_mod.sound_speed(p)
    main_track = min(
        (tr for tr in trajectories if len(tr) >= 2),
        key=lambda tr: abs(tr.positions[0] - spec.z0), default=None)
    summary = {
        "q": spec.q,
        "sound_speed_um_per_us": v_s,
        "expected_speed_um_per_us": spec.speed(v_s),
        "norm_initial": frames[0].norm(),
        "norm_final": frames[-1].norm(),
        **gpe_mod.conservation_drifts(frames, p, config.gpe.nonlinearity),
        "min_density_final": frames[-1].density().min(),
        "expected_min_density": (1.0 - spec.q**2) * p.background_amp**2,
    }
    if config.gpe.nonlinearity == "frozen":
        # the analytic soliton's speed and depth solve the self-consistent equation
        del summary["expected_speed_um_per_us"], summary["expected_min_density"]
    if main_track is not None and len(main_track) > 2:
        summary["measured_speed_um_per_us"] = main_track.fit_speed()
    summary["n_flagged"] = sum(tr.flagged for tr in trajectories)
    summary["max_spectral_tail_fraction"] = frames[-1].max_spectral_tail_fraction
    return _report(config, {
        **frame_files.close(),
        "trajectory.csv": _trajectory_table((tr.times, tr.positions) for tr in trajectories),
        "summary.txt": _text(scalar_lines(summary)),
    })


def run_gpe_split(config: RunConfig, writer: ReportWriter | None = None) -> ExperimentReport:
    result = gpe_mod.soliton_split_experiment(
        config.soliton.q, config.to_gpe_params(), config.to_gpe_grid(),
        z0=config.soliton.z0_um,
        seed_separation_widths=config.soliton.seed_separation_widths,
        snapshot_stride=config.gpegrid.snapshot_stride,
        nonlinearity=config.gpe.nonlinearity,
        background_decay_rate=config.gpe.background_decay_per_us,
    )
    if not result.scalars.get("succeeded"):
        diagnostics = ", ".join(scalar_lines(dict(sorted(result.scalars.items()))))
        raise NumericsError("soliton splitting did not produce two persistent dips "
                            f"({diagnostics})")
    t, left, right = result.t, result.z_left, result.z_right
    return _report(config, {
        "separation.csv": (["t_us", "z_left_um", "z_right_um", "separation_um"],
                           [t, left, right, right - left]),
        "trajectory.csv": _trajectory_table([(t, left), (t, right)]),
        "summary.txt": _text(summary_lines(config.experiment, result.params, result.scalars)),
    })


_RUNNERS = {
    "groupvel": run_groupvel,
    "propagate": run_propagate,
    "store": run_store,
    "imbalance": run_imbalance,
    "mediums": run_mediums,
    "feasibility": run_feasibility,
    "gpe-soliton": run_gpe_soliton,
    "gpe-split": run_gpe_split,
}


def run(config: RunConfig, out_dir: str | Path, timings: dict | None = None) -> None:
    """Execute the configured experiment, writing outputs atomically.

    Results appear at ``out_dir`` only if the whole experiment succeeds.
    They are written into a work directory of their own beside ``out_dir``,
    so concurrent runs never touch each other's files, and moved into place
    at the end; the move fails if ``out_dir`` gained files meanwhile.  The
    runner hands its frame tables to the report writer while it runs; every
    writer is reaped before the work directory is moved or removed, so none
    outlives the call.  ``timings``, if given, gets the seconds of the
    ``solve`` (the runner) and of the final ``write``.
    """
    out_dir = Path(out_dir)
    if out_dir.exists() and not out_dir.is_dir():
        raise ConfigError(f"--out {out_dir} is a file, not a directory")
    if out_dir.exists() and any(out_dir.iterdir()):
        raise ConfigError(f"output directory {out_dir} already exists and is not empty")
    runner = _RUNNERS[config.experiment]
    work = out_dir.parent / f"{out_dir.name}.{os.urandom(6).hex()}.partial"
    try:
        work.mkdir(parents=True)
    except NotADirectoryError as exc:
        raise ConfigError(f"--out {out_dir} lies under a file: {exc}") from exc
    try:
        with ReportWriter(work) as writer:
            start = time.perf_counter()
            report = runner(config, writer)
            solved = time.perf_counter()
            writer.finish(report)
            if timings is not None:
                timings.update(solve=solved - start, write=time.perf_counter() - solved)
        try:
            work.rename(out_dir)  # replaces an empty out_dir, never a full one
        except OSError as exc:
            raise ConfigError(f"output directory {out_dir} gained files during the "
                              f"run: {exc}") from exc
    except BaseException:
        shutil.rmtree(work, ignore_errors=True)
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slowmol",
        description="Slow light, optical storage and gray solitons in an "
                    "atom-molecule medium",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", type=str, default=None,
                        help="key-value configuration file")
        sp.add_argument("--out", type=str, required=True,
                        help="output directory (must not already contain results)")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a single configuration key (repeatable)")
        sp.add_argument("--force", action="store_true",
                        help="bypass the feasibility gate")
        sp.add_argument("--timings", action="store_true",
                        help="print the seconds of each phase on stderr")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        overrides = list(args.set) + [f"experiment={args.experiment}"]
        if args.force:
            overrides.append("run.force=true")
        start = time.perf_counter()
        config = load_config(args.config, overrides)
        timings = {"import": _IMPORTED - _IMPORT_START, "config": time.perf_counter() - start}
        run(config, args.out, timings)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except StoppedLightError as exc:
        # only an experiment raises it, so the config has loaded
        key = ("schedule.table_values_rad_per_us" if config.schedule.form == "table"
               else "schedule.omega0_rad_per_us")
        print(f"configuration error: {key}: {exc}", file=sys.stderr)
        return 2
    except FeasibilityRefused as exc:
        print(f"feasibility gate refused: {'; '.join(feasibility_lines(exc.args[0]))}",
              file=sys.stderr)
        print("re-run with --force to override", file=sys.stderr)
        return 4
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if args.timings:
        print("timings: " + ", ".join(f"{phase} {seconds:.3f} s"
                                      for phase, seconds in timings.items()), file=sys.stderr)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
