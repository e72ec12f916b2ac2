"""Command-line front end: one runner per experiment, one writer.

Each ``run_<name>(config)`` computes an experiment and returns an
``ExperimentReport`` whose ``files`` hold every output file, without
touching the disk; ``run`` hands the report to ``reports.write_report``
and moves the finished directory into place.

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
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import gpe as gpe_mod
from . import protocol
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
from .reports import ExperimentReport, fmt_float, format_column, scalar_lines, write_report

_CURVE_COLUMNS = ["t_us", "omega_rad_per_us", "vg_over_c"]


def _curve_grid(config: RunConfig) -> np.ndarray:
    return np.linspace(0.0, config.curve.t_end_us, config.curve.points)


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _report(config: RunConfig, files: dict,
            report: ExperimentReport | None = None) -> ExperimentReport:
    """``report`` (a bare one by default) carrying ``files`` plus config.txt."""
    report = report or ExperimentReport(kind=config.experiment)
    report.files = {"config.txt": serialize_config(config), **files}
    return report


def _gnuplot(config: RunConfig, curve_files: list[str]) -> dict:
    if not config.run.gnuplot:
        return {}
    plots = ", ".join(f"'{name}' using 1:3 with lines" for name in curve_files)
    return {"plot.gp": _text([
        "set datafile separator ','", "set key autotitle columnhead",
        "set xlabel 't (us)'", "set ylabel 'v_g / c'", f"plot {plots}"])}


def _curve_files(reports: list[ExperimentReport], curve_ids: list[str],
                 tags: list, summary: list[str], config: RunConfig) -> dict:
    """One curve CSV per sweep report, their manifest, summary and plot.
    A column that is the same array in every report (the sweep's t and
    Omega) is formatted once for all curves; each curve's own column is
    formatted only when its file is written."""
    names = [f"curve_{cid}.csv" for cid in curve_ids]
    first = reports[0].series
    shared = {k: format_column(first[k]) for k in _CURVE_COLUMNS
              if all(rep.series[k] is first[k] for rep in reports)}
    files = {name: (_CURVE_COLUMNS, [shared.get(k, rep.series[k]) for k in _CURVE_COLUMNS])
             for name, rep in zip(names, reports)}
    files["manifest.csv"] = (["curve_id", "eta_or_kind", "file"],
                             [curve_ids, tags, names])
    files["summary.txt"] = _text(summary)
    return {**files, **_gnuplot(config, names)}


def _frame_files(prefix: str, stem: str, z: np.ndarray, frames, header: list[str],
                 columns) -> dict:
    """One CSV per frame plus the manifest ``<stem>s.csv`` of frame times.
    Every frame table opens with the same ``z_um`` column, formatted once
    here; ``columns(frame)`` builds the rest of a frame's table only when
    its file is written."""
    z_cells = format_column(z)

    def table(frame):
        return [z_cells, *columns(frame)]

    names = [f"{stem}_{i:05d}.csv" for i in range(len(frames))]
    files = {prefix + name: (["z_um", *header], functools.partial(table, frame))
             for name, frame in zip(names, frames)}
    files[prefix + stem + "s.csv"] = (["index", "t_us", "file"], [
        list(map(fmt_float, range(len(frames)))), [frame.t for frame in frames], names])
    return files


def _snapshot_files(prefix: str, z: np.ndarray, snapshots,
                    fields: tuple[str, ...]) -> dict:
    """Mean-field snapshots: z_um, then re_/im_ pairs of ``fields``."""
    header = [f"{part}_{name}" for name in fields for part in ("re", "im")]
    return _frame_files(prefix, "snapshot", z, snapshots, header, lambda snap: [
        part for name in fields for part in (getattr(snap, name).real,
                                             getattr(snap, name).imag)])


def _trajectory_table(tracks) -> tuple[list[str], list]:
    """Dip trajectories from (times, positions) pairs, one dip index each."""
    cols = [[], [], [], []]
    for idx, (t, x) in enumerate(tracks):
        t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
        speed = np.gradient(x, t) if len(t) > 1 else np.zeros_like(x)
        for col, values in zip(cols, (t, [fmt_float(idx)] * len(t), x, speed)):
            col.extend(values)
    return ["t_us", "dip_index", "z_um", "speed_um_per_us"], cols


def run_groupvel(config: RunConfig) -> ExperimentReport:
    p = config.to_medium_params()
    sched = config.to_schedule()
    t = _curve_grid(config)
    omega = np.asarray(sched.omega(t), dtype=float)
    vg = protocol.velocity_curve(p, sched, t)
    summary = {
        "plateau_omega_rad_per_us": sched.plateau,
        "mixing_angle_at_plateau_rad": mixing_angle(p, sched.plateau),
        "vg_at_plateau_m_per_s": group_velocity_with_decay(p, sched.plateau),
        "gamma1_rad_per_us": p.gamma1,
        "gamma2_rad_per_us": p.gamma2,
    }
    if p.gamma1 * p.gamma2 > 0:
        floor = velocity_floor(p)
        summary.update(velocity_floor_m_per_s=floor, velocity_floor_km_per_s=floor * 1e-3)
    else:
        summary["velocity_floor_m_per_s"] = "none (no decay floor)"
    return _report(config, {
        "velocity_curve.csv": (_CURVE_COLUMNS, [t, omega, vg / p.c]),
        "summary.txt": _text(scalar_lines(summary)),
        **_gnuplot(config, ["velocity_curve.csv"]),
    })


def run_propagate(config: RunConfig) -> ExperimentReport:
    p = config.to_medium_params()
    sched = config.to_schedule()
    grid = config.to_grid()
    pulse = config.to_pulse(grid)
    # a pulse is located by its centroid: it must be on the grid at the start and the end
    start = keyed("pulse.center_um, pulse.peak_amplitude", pulse_center, grid.z, pulse.samples)
    s0 = MeanFieldState.polariton_state(grid, p, pulse, float(sched.omega(0.0)))
    snaps = integrate_mean_field(
        s0, sched, p, grid,
        snapshot_stride=config.grid.snapshot_stride,
        substeps=config.run.substeps, advection=config.run.advection,
    )
    last = snaps[-1]
    oracle = wea_propagate(pulse, sched, p, last.t)
    travel_meas = keyed("grid.t_end_us", pulse_center, grid.z, last.E) - start
    travel_pred = (keyed("grid.t_end_us", pulse_center, grid.z, oracle.samples)
                   - config.pulse.center_um)
    peak_meas = float(np.max(np.abs(last.E)) / np.max(np.abs(snaps[0].E)))
    peak_pred = amplitude_ratio(p, sched, last.t)
    return _report(config, {
        **_snapshot_files("", grid.z, snaps, ("E", "phi_a", "phi_b", "phi_e", "phi_g")),
        "summary.txt": _text(scalar_lines({
            "t_end_us": last.t,
            "travel_measured_um": travel_meas,
            "travel_predicted_um": travel_pred,
            "peak_ratio_measured": peak_meas,
            "peak_ratio_predicted": peak_pred,
            # reported, never gated: a cfl < 1 scheme dissipates Q3 by design
            **integration_diagnostics(snaps, p, grid),
        })),
    })


def run_store(config: RunConfig) -> ExperimentReport:
    p = config.to_medium_params()
    sched = config.to_schedule()
    grid = config.to_grid()
    pulse = config.to_pulse(grid)
    report = protocol.run_storage_retrieval(
        p, sched, pulse, grid,
        force=config.run.force,
        substeps=config.run.substeps,
        snapshot_stride=config.grid.snapshot_stride,
        advection=config.run.advection,
    )
    prof = report.profiles
    return _report(config, {
        "storage_report.csv": (
            ["z_um", "re_E_in", "im_E_in", "re_phig_stored", "im_phig_stored",
             "re_E_out", "im_E_out"],
            [prof["z_um"], prof["e_in"].real, prof["e_in"].imag,
             prof["phig_stored"].real, prof["phig_stored"].imag,
             prof["e_out"].real, prof["e_out"].imag]),
        "velocity_curve.csv": (_CURVE_COLUMNS, [report.series[k] for k in _CURVE_COLUMNS]),
        **_snapshot_files("snapshots/", grid.z, report.snapshots, ("E", "phi_g")),
        "summary.txt": _text(report.summary_lines()),
    }, report)


def run_imbalance(config: RunConfig) -> ExperimentReport:
    p = config.to_medium_params()
    sched = config.to_schedule()
    # validate has checked the ratios, so only N_a N_b g_tilde^2 can overflow here
    reports = keyed("sweep.n_total", protocol.imbalance_sweep, config.sweep.n_total,
                    config.sweep.etas, sched, p, t_grid=_curve_grid(config))
    ids = [f"eta{i:02d}" for i in range(len(reports))]
    summary = [f"min_vg_over_c_{cid} = {fmt_float(rep.scalars['min_vg_over_c'])} "
               f"(eta = {fmt_float(rep.params['eta'])})"
               for cid, rep in zip(ids, reports)]
    return _report(config, _curve_files(
        reports, ids, [rep.params["eta"] for rep in reports], summary, config))


def run_mediums(config: RunConfig) -> ExperimentReport:
    p = config.to_medium_params()
    sched = config.to_schedule()
    kinds = config.sweep_kinds()
    n_scan = np.logspace(math.log10(config.sweep.n_scan_min),
                         math.log10(config.sweep.n_scan_max),
                         config.sweep.n_scan_points)
    reports = protocol.medium_comparison(
        config.sweep.n_total, kinds, sched, p, t_grid=_curve_grid(config), n_scan=n_scan)
    names = [rep.params["medium_kind"] for rep in reports]
    summary = scalar_lines({f"scaling_exponent_{name.replace('-', '_')}":
                            rep.scalars["scaling_exponent"] for name, rep in zip(names, reports)})
    return _report(config, _curve_files(reports, names, names, summary, config))


def run_feasibility(config: RunConfig) -> ExperimentReport:
    p = config.to_medium_params()
    rep = protocol.feasibility_check(
        p, config.feasibility.t_s_us, config.to_schedule(),
        config.feasibility.t_storage_us, threshold=config.feasibility.threshold)
    lines = []
    if p.gamma1 > 0:
        lines.append(f"gamma1_inverse_ms = {fmt_float(1e-3 / p.gamma1)}")
    lines.extend(rep.summary_lines())
    lines.append(f"all_ok = {fmt_float(rep.all_ok)}")
    names = sorted(rep.margins)
    return _report(config, {
        "summary.txt": _text(lines),
        "feasibility.csv": (["margin_" + n for n in names],
                            [[rep.margins[n]] for n in names]),
    })


def run_gpe_soliton(config: RunConfig) -> ExperimentReport:
    p = config.to_gpe_params()
    grid = config.to_gpe_grid()
    spec = config.to_soliton_spec(gpe_mod.healing_alpha(p))
    # evolve a zero-winding pair: the configured soliton plus a receding
    # opposite-direction partner, so the state fits the periodic grid
    quarter_span = 0.25 * (grid.z_max - grid.z_min)
    partner = replace(spec, z0=spec.z0 - spec.direction * quarter_span,
                      direction=-spec.direction)
    wf0 = gpe_mod.soliton_product([spec, partner], p, grid)
    frames = gpe_mod.split_step_evolve(
        wf0, p, grid,
        snapshot_stride=config.gpegrid.snapshot_stride,
        nonlinearity=config.gpe.nonlinearity,
        background_decay_rate=config.gpe.background_decay_per_us,
    )
    trajectories = gpe_mod.track_minima(
        frames, background_density=p.background_amp**2)
    v_s = gpe_mod.sound_speed(p)
    v_expected = spec.speed(v_s)
    main_track = min(
        (tr for tr in trajectories if len(tr) >= 2),
        key=lambda tr: abs(tr.positions[0] - spec.z0), default=None)
    summary = {
        "q": spec.q,
        "sound_speed_um_per_us": v_s,
        "expected_speed_um_per_us": v_expected,
        "norm_initial": frames[0].norm(),
        "norm_final": frames[-1].norm(),
        **gpe_mod.conservation_drifts(frames, p),
        "min_density_final": frames[-1].density().min(),
        "expected_min_density": (1.0 - spec.q**2) * p.background_amp**2,
    }
    if main_track is not None and len(main_track) > 2:
        summary["measured_speed_um_per_us"] = main_track.fit_speed()
    return _report(config, {
        **_frame_files("frames/", "frame", grid.z, frames, ["density", "phase"],
                       lambda wf: [wf.density(), np.angle(wf.psi)]),
        "trajectory.csv": _trajectory_table((tr.times, tr.positions) for tr in trajectories),
        "summary.txt": _text(scalar_lines(summary)),
    })


def run_gpe_split(config: RunConfig) -> ExperimentReport:
    report = gpe_mod.soliton_split_experiment(
        config.soliton.q, config.to_gpe_params(), config.to_gpe_grid(),
        z0=config.soliton.z0_um,
        seed_separation_widths=config.soliton.seed_separation_widths,
        snapshot_stride=config.gpegrid.snapshot_stride,
        background_decay_rate=config.gpe.background_decay_per_us,
    )
    if not report.scalars.get("succeeded"):
        diagnostics = ", ".join(scalar_lines(dict(sorted(report.scalars.items()))))
        raise NumericsError("soliton splitting did not produce two persistent dips "
                            f"({diagnostics})")
    series = report.series
    return _report(config, {
        "separation.csv": (["t_us", "z_left_um", "z_right_um", "separation_um"],
                           [series["t_us"], series["z_left_um"],
                            series["z_right_um"], series["separation_um"]]),
        "trajectory.csv": _trajectory_table(
            [(series["t_us"], series["z_left_um"]), (series["t_us"], series["z_right_um"])]),
        "summary.txt": _text(report.summary_lines()),
    }, report)


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


def run(config: RunConfig, out_dir: str | Path) -> None:
    """Execute the configured experiment, writing outputs atomically.

    Results appear at ``out_dir`` only if the whole experiment succeeds.
    They are written into a work directory of their own beside ``out_dir``,
    so concurrent runs never touch each other's files, and moved into place
    at the end; the move fails if ``out_dir`` gained files meanwhile.
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
        write_report(runner(config), work)
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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        overrides = list(args.set) + [f"experiment={args.experiment}"]
        if args.force:
            overrides.append("run.force=true")
        config = load_config(args.config, overrides)
        run(config, args.out)
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
        print(f"feasibility gate refused: {exc}", file=sys.stderr)
        print("re-run with --force to override", file=sys.stderr)
        return 4
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
