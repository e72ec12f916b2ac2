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
from slowmol.reports import ExperimentReport, fmt_float, format_column, write_csv


def test_write_csv_refuses_a_ragged_table(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="header and column counts differ"):
        write_csv(path, ["a", "b"], [[1.0, 2.0]])
    with pytest.raises(ValueError, match="columns must have equal length"):
        write_csv(path, ["a", "b"], [[1.0, 2.0], ["0"]])
    assert not path.exists()


def test_write_report_bytes(tmp_path):
    report = ExperimentReport(files={
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
    reports_mod.ReportWriter(tmp_path).finish(report)
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
        assert format_column(column) == list(map(repr, values))
    assert format_column(values) == ["nan", "inf", "-inf", "-0.0", "0.0", "5e-324",
                                     "-5e-324", "0.1", "1e+300"]
    assert format_column([]) == []
    assert format_column(np.array([])) == []
    # a list, so a shared column is made once and read by every table
    assert type(format_column(np.arange(3.0))) is list


def test_fmt_float_writes_every_scalar_kind():
    cases = [(True, "true"), (np.bool_(False), "false"), (3, "3"), (np.int64(-7), "-7"),
             ("none (no decay floor)", "none (no decay floor)"), (0.5, "0.5"),
             (np.float64(0.5), "0.5"), (np.float32(0.25), "0.25"), (1e300, "1e+300"),
             (math.inf, "inf"), (math.nan, "nan")]
    assert [fmt_float(value) for value, _ in cases] == [text for _, text in cases]
    # a float's text is that of its column cell
    values = [0.1, -0.0, 5e-324, np.float64(2.5)]
    assert list(map(fmt_float, values)) == format_column(values)


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
    """A failure of the test's own type, defined at module level."""


def _record_shares(monkeypatch, log_dir):
    """Make every ``_write_share`` call, in any process, append its pid and
    the names of its share to ``log_dir/<pid>``; return the reader of the
    calls as ``(pid, names)`` pairs."""
    real_write_share = reports_mod._write_share
    log_dir.mkdir()

    def write_share(outdir, share):
        with open(log_dir / str(os.getpid()), "a", encoding="utf-8") as log:
            log.write(" ".join(name for name, _ in share) + "\n")
        real_write_share(outdir, share)

    monkeypatch.setattr(reports_mod, "_write_share", write_share)
    return lambda: [(int(path.name), tuple(line.split()))
                    for path in sorted(log_dir.iterdir())
                    for line in path.read_text(encoding="utf-8").splitlines()]


def _failing_in(pid_file, error, where=lambda pid: True):
    """A table callable that appends its process id to ``pid_file`` and then
    raises ``error`` in each process where ``where(pid)`` holds."""
    def columns():
        with open(pid_file, "a", encoding="utf-8") as pids:
            pids.write(f"{os.getpid()}\n")
        if where(os.getpid()):
            raise error
        return [np.arange(3) * 0.5]

    return columns


def _pids(pid_file):
    return [int(line) for line in pid_file.read_text(encoding="utf-8").split()]


def _tables(n):
    """A report of ``n`` small tables and one text file."""
    def columns(i):
        return [np.arange(3) * 0.1 + i, [str(i)] * 3]

    files = {f"sub/t{i:02d}.csv": (["x", "i"], functools.partial(columns, i))
             for i in range(n)}
    files["notes.txt"] = "n = 1\n"
    return ExperimentReport(files=files)


def _serial_files(root, report):
    """The files of ``report`` written by one ``_write_share`` call."""
    for name in report.files:
        (root / name).parent.mkdir(parents=True, exist_ok=True)
    reports_mod._write_share(root, list(report.files.items()))
    return _files(root)


@pytest.mark.parametrize("experiment", sorted(FORKED_RUNS))
def test_forked_and_serial_writes_are_byte_identical(tmp_path, monkeypatch, experiment):
    # the runner hands each frame table to the writer as the solver makes it:
    # the forked run forks writers while it solves, and its early and final
    # writes together give the bytes of one serial _write_share of its report
    settings = FORKED_RUNS[experiment]
    config = load_config(None, [f"experiment={experiment}", *settings])
    forks = _count_forks(monkeypatch)
    inner = cli._RUNNERS[experiment]
    reports, forks_when_solved = [], []

    def runner(cfg, writer=None):
        reports.append(inner(cfg, writer))
        forks_when_solved.append(len(forks))
        return reports[-1]

    monkeypatch.setitem(cli._RUNNERS, experiment, runner)
    outputs = {}
    for name, threshold in (("serial", 10**9), ("forked", 2)):
        monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", threshold)
        run(config, tmp_path / name)
        outputs[name] = _files(tmp_path / name)
    assert forks_when_solved[0] == 0 and forks_when_solved[1] >= 1
    assert len(outputs["serial"]) >= 5
    assert outputs["forked"] == outputs["serial"] == _serial_files(tmp_path / "share",
                                                                    reports[1])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_writers_failure_reaches_the_caller_and_no_run_is_left(tmp_path, monkeypatch):
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", 0)
    parent = os.getpid()

    class Local(ValueError):  # a class defined inside a function
        pass

    # entries [1::2] are the forked writer's share: the writer fails, then
    # this process writes that share again, and the error it raises is the
    # caller's, with its type, attributes and the traceback of the table
    for name, error in (("numerics", NumericsError("overflow", t=2.5, index=7)),
                        ("module", TableError("table 1")), ("local", Local("table 1"))):
        pid_file = tmp_path / f"{name}.pids"
        report = _tables(4)
        report.files["sub/t01.csv"] = (["x"], _failing_in(pid_file, error))
        with pytest.raises(type(error)) as info:
            reports_mod.ReportWriter(tmp_path / name).finish(report)
        assert info.value is error  # NumericsError keeps its t and index
        assert info.traceback[-1].name == "columns"
        child, retry = _pids(pid_file)
        assert child != parent and retry == parent  # failed in the writer, then here
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    report = _tables(4)
    report.files["sub/t01.csv"] = (["x"], lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(OSError, match="killed by signal 9"):
        reports_mod.ReportWriter(tmp_path / "killed").finish(report)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    pid_file = tmp_path / "cli.pids"
    report = _tables(4)
    report.files["sub/t03.csv"] = (["x"], _failing_in(pid_file, TableError("table 3")))
    monkeypatch.setitem(cli._RUNNERS, "groupvel", lambda cfg, writer=None: report)
    out = tmp_path / "cli" / "out"
    (tmp_path / "cli").mkdir()
    with pytest.raises(TableError, match="^table 3$"):
        run(load_config(None, ["experiment=groupvel"]), out)
    child, retry = _pids(pid_file)
    assert child != parent and retry == parent
    assert list((tmp_path / "cli").iterdir()) == []  # no output and no work directory
    assert len(forks) == 5  # one per finish call
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failure_in_a_writer_alone_is_written_again_here(tmp_path, monkeypatch):
    forks = _count_forks(monkeypatch)
    parent = os.getpid()
    pid_file = tmp_path / "t01.pids"
    report = _tables(6)
    report.files["sub/t01.csv"] = (
        ["x"], _failing_in(pid_file, TableError("writer only"), lambda pid: pid != parent))
    calls = _record_shares(monkeypatch, tmp_path / "calls")
    monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", 0)
    reports_mod.ReportWriter(tmp_path / "forked").finish(report)
    child, retry = _pids(pid_file)
    assert child != parent and retry == parent
    names = tuple(report.files)
    assert sorted(calls()) == sorted([(parent, names[::2]), (child, names[1::2]),
                                      (parent, names[1::2])])
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", 10**9)
    reports_mod.ReportWriter(tmp_path / "serial").finish(report)
    assert _files(tmp_path / "forked") == _files(tmp_path / "serial")


def test_no_writer_outlives_a_successful_write(tmp_path, monkeypatch):
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", 0)
    reports_mod.ReportWriter(tmp_path).finish(_tables(6))
    assert len(forks) == 1
    assert len(_files(tmp_path)) == 7
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_small_report_or_a_second_thread_never_forks(tmp_path, monkeypatch):
    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    reports_mod.ReportWriter(tmp_path / "small").finish(_tables(reports_mod._FORK_MIN_TABLES - 1))
    assert len(_files(tmp_path / "small")) == reports_mod._FORK_MIN_TABLES

    monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", 0)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(10.0,))
    waiter.start()
    try:
        reports_mod.ReportWriter(tmp_path / "threaded").finish(_tables(6))
    finally:
        release.set()
        waiter.join(10.0)
    assert not waiter.is_alive()
    assert len(_files(tmp_path / "threaded")) == 7


def _hand_over(writer, report, n):
    """Hand the first ``n`` entries of ``report.files`` to ``writer``."""
    for name, content in list(report.files.items())[:n]:
        writer.hand(name, content)


def test_an_early_writers_failure_is_written_again_or_raised_as_itself(tmp_path,
                                                                        monkeypatch):
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", 2)
    parent = os.getpid()
    for name, where in (("once", lambda pid: pid != parent), ("always", lambda pid: True)):
        pid_file = tmp_path / f"{name}.pids"
        error = TableError(name)
        report = _tables(4)
        report.files["sub/t01.csv"] = (["x"], _failing_in(pid_file, error, where))
        writer = reports_mod.ReportWriter(tmp_path / name)
        _hand_over(writer, report, 2)  # t00 and t01: one writer forks for both
        assert len(forks) == 1
        if name == "once":
            writer.finish(report)
            once = report
        else:
            with pytest.raises(TableError) as info:
                writer.finish(report)
            assert info.value is error
            assert info.traceback[-1].name == "columns"
        child, retry = _pids(pid_file)
        assert child != parent and retry == parent  # failed in the early writer, then here
        assert len(forks) == 2  # and one more writer for the rest
        forks.clear()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert _files(tmp_path / "once") == _serial_files(tmp_path / "serial", once)

    monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", 2)
    report = _tables(4)
    report.files["sub/t01.csv"] = (["x"], lambda: os.kill(os.getpid(), signal.SIGKILL))
    writer = reports_mod.ReportWriter(tmp_path / "killed")
    _hand_over(writer, report, 2)
    with pytest.raises(OSError, match="killed by signal 9"):
        writer.finish(report)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# a solve that raises after frames were handed over: a non-finite field at the
# second outer step, and a lossless store whose drift gate refuses it
FAILING_RUNS = {
    "propagate": ["preset=desk-storage", "grid.n_z=256", "grid.t_end_us=5",
                  "grid.snapshot_stride=1", "schedule.omega0_rad_per_us=8000",
                  "run.substeps=1"],
    "store": ["preset=desk-storage", "grid.n_z=256", "grid.t_end_us=40",
              "grid.snapshot_stride=10", "schedule.t_down_us=8", "schedule.t_up_us=25",
              "schedule.rate_per_us=0.5", "run.substeps=1"],
}


@pytest.mark.parametrize("experiment", sorted(FAILING_RUNS))
def test_a_failed_solve_leaves_no_writer_and_no_work_directory(tmp_path, monkeypatch,
                                                               experiment):
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", 1)
    config = load_config(None, [f"experiment={experiment}", *FAILING_RUNS[experiment]])
    with pytest.raises(NumericsError):
        run(config, tmp_path / "out")
    assert len(forks) >= 1
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_second_thread_or_an_analytic_request_never_forks(tmp_path, monkeypatch):
    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", fork)
    for experiment in ("groupvel", "imbalance", "mediums", "feasibility"):
        run(load_config(None, [f"experiment={experiment}", "run.gnuplot=true"]),
            tmp_path / experiment)

    monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", 1)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(10.0,))
    waiter.start()
    try:
        run(load_config(None, ["experiment=gpe-soliton", *FORKED_RUNS["gpe-soliton"]]),
            tmp_path / "threaded")
    finally:
        release.set()
        waiter.join(10.0)
    assert not waiter.is_alive()
    assert len(_files(tmp_path / "threaded" / "frames")) == 22


def test_the_shares_partition_the_entries_within_the_cap(tmp_path, monkeypatch):
    monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", 0)
    forks = _count_forks(monkeypatch, cpus=64)
    cap = reports_mod._MAX_WRITERS
    report = _tables(3 * cap + 1)
    assert reports_mod._writer_count(report.files) == cap
    calls = _record_shares(monkeypatch, tmp_path / "calls")
    reports_mod.ReportWriter(tmp_path / "shared").finish(report)
    assert len(forks) == cap - 1
    # one call per share, each in its own process, and no share written again
    shares = calls()
    assert len(shares) == cap
    assert len({pid for pid, _ in shares}) == cap
    assert (os.getpid(), tuple(report.files)[::cap]) in shares
    written = [name for _, share in shares for name in share]
    assert sorted(written) == sorted(report.files)
    monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", 10**9)
    reports_mod.ReportWriter(tmp_path / "serial").finish(report)
    assert _files(tmp_path / "shared") == _files(tmp_path / "serial")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

    for cpus, writers in ((1, 1), (2, 2), (cap + 5, cap)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        monkeypatch.setattr(reports_mod, "_FORK_MIN_TABLES", 0)
        assert reports_mod._writer_count(report.files) == writers
