"""Structured experiment results and their one writer.

Every experiment returns an ``ExperimentReport`` whose ``files`` map holds
each output file; ``write_report`` is the only code that writes them.  All
numbers are written with shortest round-trip float formatting, so a given
report always serializes to byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

import numpy as np


def fmt_float(x: float) -> str:
    """Canonical shortest round-trip representation of a float."""
    return repr(float(x))


def format_column(column) -> Iterator[str]:
    """The cells of a float column, made lazily as a table's rows are joined:
    ``repr`` of each value read as a Python float, the shortest round-trip
    digits, as ``fmt_float`` gives one.  A column shared by many tables is
    formatted once with ``list(format_column(column))``."""
    return map(repr, np.asarray(column, dtype=float).tolist())


def _cells(column):
    """A list of strings passes through; anything else is a float column.
    The first cell decides, so a shared column is not scanned once per
    table; an empty list counts as strings."""
    if isinstance(column, list) and (not column or isinstance(column[0], str)):
        return column
    return format_column(column)


def write_csv(path: Path, header: list[str], columns: list) -> None:
    """One CSV table.  A column is a float array or list, or a list of
    strings (integer cells such as indices, or a column formatted once by
    ``format_column`` and shared by many tables, are passed as strings)."""
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
        lines = [f"optical_depth = {fmt_float(self.optical_depth)}",
                 f"threshold = {fmt_float(self.threshold)}"]
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
        lines = [f"experiment = {self.kind}"]
        for key in sorted(self.params):
            lines.append(f"param_{key} = {self.params[key]}")
        for key in sorted(self.scalars):
            val = self.scalars[key]
            text = fmt_float(val) if isinstance(val, float) and math.isfinite(val) else str(val)
            lines.append(f"{key} = {text}")
        if self.feasibility is not None:
            lines.extend(self.feasibility.summary_lines())
        return lines


def write_report(report: ExperimentReport, outdir: Path) -> None:
    """Write every entry of ``report.files`` under ``outdir``."""
    outdir = Path(outdir)
    for name, content in report.files.items():
        path = outdir / name
        if "/" in name:
            path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(content, str):
            path.write_text(content, encoding="utf-8")
        else:
            header, columns = content
            write_csv(path, header, columns() if callable(columns) else columns)
