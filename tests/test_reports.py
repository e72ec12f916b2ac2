import math

import numpy as np

from slowmol.cli import main
from slowmol.config import load_config
from slowmol.reports import ExperimentReport, format_column, write_report


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
