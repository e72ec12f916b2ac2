import numpy as np

from slowmol.reports import ExperimentReport, write_report


def test_write_report_bytes(tmp_path):
    report = ExperimentReport(kind="demo", files={
        "table.csv": (["x", "label", "index"],
                      [np.array([0.1, -2.0, 1e-300]), ["a", "b-c", "d"],
                       ["0", "1", "10"]]),
        "nested/deeper/lazy.csv": (["y"], lambda: [[3, 0.5]]),
        "empty.csv": (["t_us", "file"], [[], []]),
        "notes.txt": "alpha = 1\nbeta = none\n",
    })
    write_report(report, tmp_path)
    assert (tmp_path / "table.csv").read_bytes() == (
        b"x,label,index\n0.1,a,0\n-2.0,b-c,1\n1e-300,d,10\n")
    assert (tmp_path / "nested" / "deeper" / "lazy.csv").read_bytes() == b"y\n3.0\n0.5\n"
    assert (tmp_path / "empty.csv").read_bytes() == b"t_us,file\n"
    assert (tmp_path / "notes.txt").read_bytes() == b"alpha = 1\nbeta = none\n"
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                  if p.is_file()) == ["empty.csv", "nested/deeper/lazy.csv",
                                      "notes.txt", "table.csv"]
