"""The CLI's file map, its one writer and the text of every number written.

Every CLI experiment returns an ``ExperimentReport`` whose ``files`` map
holds each output file; a ``ReportWriter`` is the only code that writes
them: the frame tables a solver hands over while it runs, then the rest at
its ``finish``.  ``fmt_float`` and ``format_column`` make the text of every
number, so a given report always serializes to byte-identical files.
"""

from __future__ import annotations

import os
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
class ExperimentReport:
    """What one CLI experiment puts on disk.

    ``files`` holds every output file, keyed by path relative to the output
    directory: a text string, or a ``(header, columns)`` table for
    ``write_csv``.  ``columns`` may be a zero-argument callable, so that a
    large table is built only when its file is written.  ``series`` is a
    set of named columns that ``write_series_csv`` writes as one table.
    """

    series: dict[str, np.ndarray] = field(default_factory=dict)
    files: dict = field(default_factory=dict)

    def write_series_csv(self, path: Path, columns: Optional[list[str]] = None) -> None:
        names = columns if columns is not None else list(self.series)
        write_csv(path, names, [np.asarray(self.series[k], dtype=float) for k in names])


# While a solver runs, a writer is forked once this many handed-over tables
# are ready and a CPU is free.  At the finish, a report of at least this many
# tables in all has its unwritten rest shared by one process per CPU, however
# few tables that rest holds.  Forking and reaping a writer costs 2.0-2.6 ms
# on a 2-vCPU host; a frame or snapshot table takes 0.4-4 ms to write, the
# cheapest table, a 200-point sweep curve, 0.24 ms.  A default gpe-soliton
# run (103 tables) and the desk store (76) fork; no analytic request (at most
# 7 tables) does.  Batches of 4 to 24 tables gave the same in-process
# gpe-soliton time within the noise (medians 0.50-0.55 s).
_FORK_MIN_TABLES = 16
_MAX_WRITERS = 4


def _write_share(outdir: Path, entries) -> None:
    for name, content in entries:
        path = outdir / name
        if isinstance(content, str):
            path.write_text(content, encoding="utf-8")
        else:
            header, columns = content
            write_csv(path, header, columns() if callable(columns) else columns)


def _cpu_slots() -> int:
    """How many processes may write at once: one per CPU this process may
    run on, at most ``_MAX_WRITERS``; one where forking is unsafe (a second
    thread is alive) or unsupported."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() != 1:
        return 1
    return min(len(os.sched_getaffinity(0)), _MAX_WRITERS)


def _tables(entries) -> int:
    return sum(not isinstance(content, str) for _, content in entries)


def _writer_count(files: dict) -> int:
    """How many processes finish writing ``files``: ``_cpu_slots()`` for a
    report of at least ``_FORK_MIN_TABLES`` tables, otherwise one."""
    return _cpu_slots() if _tables(files.items()) >= _FORK_MIN_TABLES else 1


class ReportWriter:
    """The one writer of a report's files under ``outdir``.

    A solver's per-frame callback may ``hand`` over each frame's table as
    soon as it exists, and ``finish`` writes the rest of the report.  Used as
    a context manager, the writer reaps every process it forked on leaving,
    also when the solve raised, so no writer outlives the block.
    """

    def __init__(self, outdir: Path):
        self.outdir = Path(outdir)
        self._handed: set = set()
        self._ready: list = []   # handed-over entries that no writer has taken
        self._live: list = []    # (pid, entries) of forked writers not reaped
        self._ended: list = []   # (pid, exit code, entries) of reaped writers

    def __enter__(self) -> "ReportWriter":
        return self

    def __exit__(self, *exc) -> None:
        self._reap(block=True)

    def hand(self, name: str, content) -> None:
        """Take the entry ``name`` of ``report.files`` before the report
        exists.  Once ``_FORK_MIN_TABLES`` entries are ready and a CPU is
        free (fewer writers alive than ``_cpu_slots() - 1``), one forked
        writer takes all of them."""
        self._handed.add(name)
        self._ready.append((name, content))
        if len(self._ready) >= _FORK_MIN_TABLES:
            self._reap(block=False)
            if len(self._live) < _cpu_slots() - 1:
                self._fork(self._ready)
                self._ready = []

    def finish(self, report: ExperimentReport) -> None:
        """Write the entries of ``report.files`` not written yet (the ready
        hand-overs and every entry never handed over; on a fresh writer,
        the whole report), shared by ``_writer_count`` processes: fork
        writer *i* for the entries ``[i::k]`` of that rest, write share 0
        here, then wait for every writer, the ones forked during the solve
        included, also when share 0 failed.  Once share 0 is written, write
        each failed writer's share again, so a failure that repeats is
        raised here as itself; a writer killed by a signal raises
        ``OSError`` naming it.

        No table text crosses processes, and every file holds the same bytes
        as a one-process write, whichever process writes it and whenever.  A
        report of fewer than ``_FORK_MIN_TABLES`` tables, or one written
        while a second thread is alive, is written by this process alone.
        The call returns or raises only after every writer has exited."""
        rest = self._ready + [(name, content) for name, content in report.files.items()
                              if name not in self._handed]
        self._ready = []
        k = max(1, min(_writer_count(report.files), _tables(rest)))
        try:
            for i in range(1, k):
                self._fork(rest[i::k])
            self._make_dirs(rest[::k])
            _write_share(self.outdir, rest[::k])
        finally:
            self._reap(block=True)
        for pid, code, entries in self._ended:
            if code < 0:
                import signal  # only a killed writer needs the signal names

                raise OSError(f"report writer {pid} killed by signal {-code} "
                              f"({signal.strsignal(-code)})")
            if code:
                _write_share(self.outdir, entries)

    def _make_dirs(self, entries) -> None:
        for parent in {(self.outdir / name).parent for name, _ in entries if "/" in name}:
            parent.mkdir(parents=True, exist_ok=True)

    def _fork(self, entries: list) -> None:
        self._make_dirs(entries)
        pid = os.fork()
        if pid == 0:
            # never return into the caller's stack: its handlers and cleanup
            # belong to the parent
            status = 1
            try:
                _write_share(self.outdir, entries)
                status = 0
            finally:
                os._exit(status)
        self._live.append((pid, entries))

    def _reap(self, block: bool) -> None:
        live = []
        for pid, entries in self._live:
            done, status = os.waitpid(pid, 0 if block else os.WNOHANG)
            if done:
                self._ended.append((pid, os.waitstatus_to_exitcode(status), entries))
            else:
                live.append((pid, entries))
        self._live = live

