"""Structured experiment results and their one writer.

Every experiment returns an ``ExperimentReport`` whose ``files`` map holds
each output file; ``write_report`` is the only code that writes them.  This
module also makes the text of every number written, so a given report
always serializes to byte-identical files.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np


def fmt_float(x) -> str:
    """The text of any scalar written: a bool as ``true``/``false``, an
    integer as its digits, a string as it is, and any other number as the
    shortest round-trip ``repr`` of its Python float (a numpy float too)."""
    if isinstance(x, float):  # the common case first, numpy's float64 included
        return repr(float(x))
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(x)
    return x if isinstance(x, str) else repr(float(x))


def scalar_lines(values: dict) -> list[str]:
    """The ``key = value`` lines of a summary, in the order of ``values``."""
    return [f"{key} = {fmt_float(value)}" for key, value in values.items()]


def format_column(column) -> list[str]:
    """The cells of a float column: ``repr`` of each value read as a Python
    float, the shortest round-trip digits, as ``fmt_float`` gives one.  A
    column shared by many tables is formatted once and passed as its cells."""
    return list(map(repr, np.asarray(column, dtype=float).tolist()))


def _cells(column):
    """A list of strings passes through; anything else is a float column.
    The first cell decides, so a shared column is not scanned once per
    table; an empty list counts as strings."""
    if isinstance(column, list) and (not column or isinstance(column[0], str)):
        return column
    return format_column(column)


def write_csv(path: Path, header: list[str], columns: list) -> None:
    """One CSV table.  A column is a float array or list, or a list of
    strings: integer cells such as indices, made by ``fmt_float``, or the
    cells of a column that many tables share, made once by ``format_column``."""
    if len(header) != len(columns):
        raise ValueError("header and column counts differ")
    n = len(columns[0])
    for col in columns:
        if len(col) != n:
            raise ValueError("columns must have equal length")
    rows = map(",".join, zip(*map(_cells, columns)))
    Path(path).write_text("\n".join([",".join(header), *rows]) + "\n", encoding="utf-8")


@dataclass
class FeasibilityReport:
    """Margins of the storage feasibility inequalities.

    Each check passes when its margin (the ratio that the corresponding
    "much less than" inequality requires to be small) stays below the
    threshold.
    """

    optical_depth: float
    margins: dict[str, float]
    threshold: float = 0.1

    def _ok(self, key: str) -> bool:
        return self.margins[key] < self.threshold

    @property
    def storage_window_ok(self) -> bool:
        return self._ok("storage")

    @property
    def spectral_window_ok(self) -> bool:
        return self._ok("spectral")

    @property
    def compression_ok(self) -> bool:
        return self._ok("compression")

    @property
    def all_ok(self) -> bool:
        return all(m < self.threshold for m in self.margins.values())

    def summary_lines(self) -> list[str]:
        # a medium without excited-state decay has an infinite optical depth
        depth = fmt_float(self.optical_depth) if self.optical_depth < math.inf else "unbounded"
        lines = [f"optical_depth = {depth}", f"threshold = {fmt_float(self.threshold)}"]
        for key in sorted(self.margins):
            ok = "pass" if self._ok(key) else "fail"
            lines.append(f"margin_{key} = {fmt_float(self.margins[key])} ({ok})")
        return lines


@dataclass
class ExperimentReport:
    """Results of one experiment: tagged series, scalars, feasibility.

    ``profiles`` holds spatial arrays (e.g. stored envelopes) and
    ``snapshots`` full field states; both are optional payloads and are
    not part of the scalar summary.

    ``files`` is everything the experiment puts on disk, keyed by path
    relative to the output directory: a text string, or a
    ``(header, columns)`` table for ``write_csv``.  ``columns`` may be a
    zero-argument callable, so that a large table is built only when its
    file is written.
    """

    kind: str
    params: dict = field(default_factory=dict)
    series: dict[str, np.ndarray] = field(default_factory=dict)
    scalars: dict[str, float] = field(default_factory=dict)
    feasibility: Optional[FeasibilityReport] = None
    profiles: dict = field(default_factory=dict)
    snapshots: list = field(default_factory=list)
    files: dict = field(default_factory=dict)

    def write_series_csv(self, path: Path, columns: Optional[list[str]] = None) -> None:
        names = columns if columns is not None else list(self.series)
        write_csv(path, names, [np.asarray(self.series[k], dtype=float) for k in names])

    def summary_lines(self) -> list[str]:
        lines = [f"experiment = {self.kind}",
                 *scalar_lines({f"param_{key}": self.params[key] for key in sorted(self.params)}),
                 *scalar_lines({key: self.scalars[key] for key in sorted(self.scalars)})]
        if self.feasibility is not None:
            lines.extend(self.feasibility.summary_lines())
        return lines


# A report with at least this many tables is written by several processes.
# Forking and reaping one writer costs 2.0-2.6 ms on a 2-vCPU host, and the
# cheapest table measured, a 200-point sweep curve, takes 0.24 ms to write:
# the 16 tables a second process takes from 32 save 3.8 ms.  Frame and
# snapshot tables take 0.4-4 ms each.  Every analytic request (at most 7
# tables) stays in one process; the desk store (76) and a default
# gpe-soliton run (103) fork.
_FORK_MIN_TABLES = 32
_MAX_WRITERS = 4


def _write_share(outdir: Path, entries) -> None:
    for name, content in entries:
        path = outdir / name
        if isinstance(content, str):
            path.write_text(content, encoding="utf-8")
        else:
            header, columns = content
            write_csv(path, header, columns() if callable(columns) else columns)


def _writer_count(files: dict) -> int:
    """How many processes write ``files``: one per CPU this process may run
    on, at most ``_MAX_WRITERS``, for a report of at least
    ``_FORK_MIN_TABLES`` tables; otherwise, or where forking is unsafe (a
    second thread is alive) or unsupported, one."""
    tables = sum(not isinstance(content, str) for content in files.values())
    if (tables < _FORK_MIN_TABLES or not hasattr(os, "sched_getaffinity")
            or threading.active_count() != 1):
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_WRITERS)


def _fork_writer(outdir: Path, share) -> tuple[int, int]:
    """Fork a process that writes ``share`` and exits; return its pid and the
    read end of a pipe that carries its exception, pickled, if it fails."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # never return into the caller's stack: its handlers and cleanup
        # belong to the parent
        status = 1
        try:
            os.close(read_fd)
            _write_share(outdir, share)
            status = 0
        except BaseException as exc:
            try:
                payload = pickle.dumps(exc)
                pickle.loads(payload)  # the parent must be able to rebuild it
            except Exception:  # e.g. a class defined inside a function
                payload = pickle.dumps(OSError(f"{type(exc).__qualname__}: {exc}"))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _reap(pid: int, read_fd: int) -> Optional[BaseException]:
    """Wait for one writer; return its failure, or None if it succeeded."""
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()  # to EOF before waiting, so a long payload cannot block
    _, status = os.waitpid(pid, 0)
    if payload:
        return pickle.loads(payload)
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        import signal  # only a killed writer needs the signal names

        return OSError(f"report writer {pid} killed by signal {-code} "
                       f"({signal.strsignal(-code)})")
    if code:
        return OSError(f"report writer {pid} exited with status {code}")
    return None


def write_report(report: ExperimentReport, outdir: Path) -> None:
    """Write every entry of ``report.files`` under ``outdir``.

    A report of at least ``_FORK_MIN_TABLES`` tables is written by one
    process per CPU that this process may run on (``os.sched_getaffinity``),
    at most ``_MAX_WRITERS``, and only while no second thread is alive.
    This process makes every directory, forks writer *i* for the entries
    ``[i::k]``, writes share 0 itself and then waits for every writer, also
    when its own share failed, so no writer outlives the call.  No table
    text crosses processes, and every file holds the same bytes as a
    one-process write.  A writer's exception is raised here with its type
    and message; one that pickle cannot carry, or a writer killed by a
    signal, raises ``OSError`` naming it.
    """
    outdir = Path(outdir)
    entries = list(report.files.items())
    for parent in {(outdir / name).parent for name, _ in entries if "/" in name}:
        parent.mkdir(parents=True, exist_ok=True)
    k = _writer_count(report.files)
    writers = []
    failures = []
    try:
        for i in range(1, k):
            writers.append(_fork_writer(outdir, entries[i::k]))
        _write_share(outdir, entries[::k])
    finally:
        for pid, read_fd in writers:
            failure = _reap(pid, read_fd)
            if failure is not None:
                failures.append(failure)
    if failures:
        raise failures[0]
