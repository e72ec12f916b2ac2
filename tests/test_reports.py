import functools
import math
import os
import signal
import threading

import numpy as np
import pytest

from slowmol import cli
from slowmol import reports as reports_mod
from slowmol.cli import main, run
from slowmol.config import load_config
from slowmol.errors import NumericsError
from slowmol.reports import ExperimentReport, format_column, write_report


def test_write_report_bytes(tmp_path):
    report = ExperimentReport(kind="demo", files={
        "table.csv": (["x", "label", "index"],
                      [np.array([0.1, -2.0, 1e-300]), ["a", "b-c", "d"],
                       ["0", "1", "10"]]),
        "nested/deeper/lazy.csv": (["y"], lambda: [[3, 0.5]]),
        # a list column's first cell types it: float lists such as the
        # trajectory table's are formatted, an empty list is written as given
        "trajectory.csv": (["t_us", "dip_index", "z_um"],
                           [[np.float64(0.25), 1.5, 2], ["0", "0", "1"], [-0.0, 1e-300, 3.0]]),
        "empty.csv": (["t_us", "file"], [[], []]),
        "notes.txt": "alpha = 1\nbeta = none\n",
    })
    write_report(report, tmp_path)
    assert (tmp_path / "table.csv").read_bytes() == (
        b"x,label,index\n0.1,a,0\n-2.0,b-c,1\n1e-300,d,10\n")
    assert (tmp_path / "nested" / "deeper" / "lazy.csv").read_bytes() == b"y\n3.0\n0.5\n"
    assert (tmp_path / "trajectory.csv").read_bytes() == (
        b"t_us,dip_index,z_um\n0.25,0,-0.0\n1.5,0,1e-300\n2.0,1,3.0\n")
    assert (tmp_path / "empty.csv").read_bytes() == b"t_us,file\n"
    assert (tmp_path / "notes.txt").read_bytes() == b"alpha = 1\nbeta = none\n"
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                  if p.is_file()) == ["empty.csv", "nested/deeper/lazy.csv",
                                      "notes.txt", "table.csv", "trajectory.csv"]


def test_format_column_is_repr_of_each_float():
    values = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 0.1, 1e300]
    for column in (values, np.array(values)):
        assert list(format_column(column)) == list(map(repr, values))
    assert list(format_column(values)) == ["nan", "inf", "-inf", "-0.0", "0.0", "5e-324",
                                           "-5e-324", "0.1", "1e+300"]
    assert list(format_column([])) == []
    assert list(format_column(np.array([]))) == []


def test_every_frame_shares_the_z_column_of_the_grid(tmp_path):
    settings = ["gpegrid.n_z=256", "gpegrid.t_end_us=0.5", "gpegrid.snapshot_stride=20"]
    assert main(["gpe-soliton", "--out", str(tmp_path / "sol"),
                 *[arg for setting in settings for arg in ("--set", setting)]]) == 0
    z = load_config(None, ["experiment=gpe-soliton", *settings]).to_gpe_grid().z
    shared = ["z_um", *map(repr, z.tolist())]
    files = sorted((tmp_path / "sol" / "frames").glob("frame_*.csv"))
    assert len(files) == 6
    for path in files:
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [line.split(",")[0] for line in lines] == shared


# ------------------------------------------------------- the forked writers

FORKED_RUNS = {
    "gpe-soliton": ["gpegrid.n_z=256", "gpegrid.t_end_us=1", "gpegrid.snapshot_stride=10"],
    "store": ["preset=desk-storage", "grid.n_z=256", "grid.t_end_us=40",
              "grid.snapshot_stride=50", "schedule.t_down_us=8",
              "schedule.t_up_us=25", "schedule.rate_per_us=0.5"],
    "propagate": ["preset=desk-storage", "grid.n_z=128", "grid.t_end_us=5",
                  "grid.snapshot_stride=20"],
}


def _count_forks(monkeypatch, cpus=2):
    """Let the writer see ``cpus`` CPUs and count the processes it forks."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(os, "fork", fork)
    return forks


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TableError(ValueError):
    """A failure of the test's own type; pickle finds it by its module path."""


def _tables(n, failing=None, error=None):
    """A report of ``n`` small tables and one text file; table ``failing``
    raises ``error`` when it is built."""
    def columns(i):
        if i == failing:
            raise error
        return [np.arange(3) * 0.1 + i, [str(i)] * 3]

    files = {f"sub/t{i:02d}.csv": (["x", "i"], functools.partial(columns, i))
             for i in range(n)}
    files["notes.txt"] = "n = 1\n"
    return ExperimentReport(kind="demo", files=files)


@pytest.mark.parametrize("experiment", sorted(FORKED_RUNS))
def test_forked_and_serial_writes_are_byte_identical(tmp_path, monkeypatch, experiment):
    settings = FORKED_RUNS[experiment]
    config = load_config(None, [f"experiment={experiment}", *settings])
    forks = _count_forks(monkeypatch)
    outputs = {}
    for name, threshold in (("serial", 10**9), ("forked", 0)):
        monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", threshold)
        run(config, tmp_path / name)
        outputs[name] = _files(tmp_path / name)
    assert len(forks) == 1  # the forked run forked one writer, the serial run none
    assert len(outputs["serial"]) >= 5
    assert outputs["forked"] == outputs["serial"]


def test_a_writers_failure_reaches_the_caller_and_no_run_is_left(tmp_path, monkeypatch):
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", 0)
    parent = os.getpid()

    def failing_table():
        raise TableError(f"table built in process {os.getpid()}")

    # entries [1::2] are the forked writer's share
    report = _tables(4, failing=1, error=NumericsError("overflow", t=2.5, index=7))
    with pytest.raises(NumericsError, match=r"^overflow at t=2\.5, grid index 7$") as info:
        write_report(report, tmp_path / "direct")
    assert (info.value.t, info.value.index) == (2.5, 7)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    class Local(ValueError):  # pickle cannot name a class defined here
        pass

    with pytest.raises(OSError, match=r"Local: table 1$"):
        write_report(_tables(4, failing=1, error=Local("table 1")), tmp_path / "local")

    report = _tables(4)
    report.files["sub/t01.csv"] = (["x"], lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(OSError, match="killed by signal 9"):
        write_report(report, tmp_path / "killed")

    report = _tables(4)
    report.files["sub/t03.csv"] = (["x"], failing_table)
    monkeypatch.setitem(cli._RUNNERS, "groupvel", lambda cfg: report)
    out = tmp_path / "cli" / "out"
    (tmp_path / "cli").mkdir()
    with pytest.raises(TableError, match="table built in process") as info:
        run(load_config(None, ["experiment=groupvel"]), out)
    assert int(str(info.value).split()[-1]) != parent  # raised in the child, not here
    assert list((tmp_path / "cli").iterdir()) == []  # no output and no work directory
    assert len(forks) == 4
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_writer_outlives_a_successful_write(tmp_path, monkeypatch):
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", 0)
    write_report(_tables(6), tmp_path)
    assert len(forks) == 1
    assert len(_files(tmp_path)) == 7
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_small_report_or_a_second_thread_never_forks(tmp_path, monkeypatch):
    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    write_report(_tables(reports_mod._FORK_MIN_TABLES - 1), tmp_path / "small")
    assert len(_files(tmp_path / "small")) == reports_mod._FORK_MIN_TABLES

    monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", 0)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(10.0,))
    waiter.start()
    try:
        write_report(_tables(6), tmp_path / "threaded")
    finally:
        release.set()
        waiter.join(10.0)
    assert not waiter.is_alive()
    assert len(_files(tmp_path / "threaded")) == 7


def test_the_shares_partition_the_entries_within_the_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", 0)
    forks = _count_forks(monkeypatch, cpus=64)
    cap = reports_mod._MAX_WRITERS
    report = _tables(3 * cap + 1)
    assert reports_mod._writer_count(report.files) == cap
    # only the first extra writer is forked; the others write in this process
    real_fork_writer, real_reap = reports_mod._fork_writer, reports_mod._reap
    real_write_share = reports_mod._write_share
    shares = []

    def fork_writer(outdir, share):
        shares.append(share)
        if len(shares) == 1:
            return real_fork_writer(outdir, share)
        real_write_share(outdir, share)
        return None, None

    def write_share(outdir, share):
        shares.insert(0, share)
        real_write_share(outdir, share)

    monkeypatch.setattr(reports_mod, "_fork_writer", fork_writer)
    monkeypatch.setattr(reports_mod, "_reap",
                        lambda pid, fd: None if pid is None else real_reap(pid, fd))
    monkeypatch.setattr(reports_mod, "_write_share", write_share)
    write_report(report, tmp_path / "shared")
    assert len(forks) == 1
    assert len(shares) == cap
    written = [name for share in shares for name, _ in share]
    assert sorted(written) == sorted(report.files)
    monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", 10**9)
    write_report(report, tmp_path / "serial")
    assert _files(tmp_path / "shared") == _files(tmp_path / "serial")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    for cpus, writers in ((1, 1), (2, 2), (cap + 5, cap)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", 0)
        assert reports_mod._writer_count(report.files) == writers
