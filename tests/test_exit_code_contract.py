"""The exit-code contract of ``slowmol.cli.main`` as one property.

Every configuration either writes finite outputs (exit 0) or fails with a
documented code: 2 naming a key, 3 or 4, leaving nothing on disk.  The
property drives ``main`` in-process over the numeric keys of all eight
experiments.  Keys that size the work (grid points, horizons, time steps,
strides and sample counts) are drawn from small ranges, so the solver
experiments run on tiny grids; every other numeric key is drawn from
extreme values (0, +-1e-300, +-1e300, nan, inf) and from values near its
default.  The horizons, the control plateau, the explicit substep count and
the curve and scan sample counts are also drawn from ranges wholly beyond a
work cap (2e6 time steps, 1e8 substeps, 1e5 samples), where a run must stop
with exit 2 before its first step or allocation.
"""

import contextlib
import dataclasses
import io
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from slowmol import cli
from slowmol.config import EXPERIMENTS, MAX_SAMPLES, RunConfig

_TINY_STORE = ["preset=desk-storage", "grid.n_z=64", "grid.t_end_us=40",
               "grid.snapshot_stride=10", "schedule.t_down_us=8", "schedule.t_up_us=25",
               "schedule.rate_per_us=0.5"]
_TINY_GPE = ["gpegrid.n_z=128", "gpegrid.z_min_um=-20", "gpegrid.z_max_um=20",
             "gpegrid.t_end_us=0.2", "gpegrid.dt_us=0.01", "gpegrid.snapshot_stride=5"]
BASE = {"store": _TINY_STORE, "propagate": _TINY_STORE,
        "gpe-soliton": _TINY_GPE, "gpe-split": _TINY_GPE}

# keys that size the work, each with the range it is drawn from
SIZES = {
    "grid.n_z": st.integers(64, 256),
    "grid.t_end_us": st.floats(0.0, 40.0),
    "grid.dt_us": st.one_of(st.just(0.0), st.floats(0.2, 5.0)),
    "grid.snapshot_stride": st.integers(0, 50),
    "gpegrid.n_z": st.integers(64, 256),
    "gpegrid.t_end_us": st.floats(0.0, 0.3),
    "gpegrid.dt_us": st.floats(0.005, 0.2),
    "gpegrid.snapshot_stride": st.integers(0, 50),
    "curve.points": st.integers(0, 300),
    "sweep.n_scan_points": st.integers(0, 30),
}
# ranges wholly beyond a work cap: at the largest drawn dt, 5 us on the grid and
# 0.2 us on the GPE grid, these horizons take 2e7 and 5e7 steps (cap 2e6), and
# this plateau takes more than 1e8 substeps; so does an explicit substep count of
# 1e8 or more, over the two half-steps or more of any run.  A curve or scan of
# more than MAX_SAMPLES points is refused by validate.  A tiny time step or a
# larger grid would allocate before any cap, so none is drawn; a grid beyond
# the held-frames budget is pinned once per solver below.
BEYOND_CAPS = {
    "grid.t_end_us": st.floats(1e8, 1e300),
    "gpegrid.t_end_us": st.floats(1e7, 1e300),
    "schedule.omega0_rad_per_us": st.floats(1e9, 1e150),
    "run.substeps": st.integers(10**8, 10**12),
    "curve.points": st.integers(MAX_SAMPLES + 1, 10**12),
    "sweep.n_scan_points": st.integers(MAX_SAMPLES + 1, 10**12),
}
EXTREMES = [0.0, 1.0, -1.0, 1e-300, -1e-300, 1e300, -1e300, "nan", "inf", "-inf"]

_DEFAULTS = RunConfig()
# every "section.key" of a document, with its default value
DEFAULTS = {f"{section.name}.{f.name}": getattr(getattr(_DEFAULTS, section.name), f.name)
            for section in dataclasses.fields(RunConfig)
            if dataclasses.is_dataclass(getattr(_DEFAULTS, section.name))
            for f in dataclasses.fields(getattr(_DEFAULTS, section.name))}


def _values(default) -> st.SearchStrategy:
    if isinstance(default, int):
        return st.sampled_from([-1, 0, 1, 2, 3, 16])
    near = [] if isinstance(default, tuple) or default == 0 else [0.5 * default, 2 * default]
    return st.sampled_from(EXTREMES + near)


# every numeric key outside SIZES (lists of numbers included), with its values
NUMERIC = {key: _values(default) for key, default in DEFAULTS.items()
           if key not in SIZES and not isinstance(default, (bool, str))
           and not (isinstance(default, tuple) and any(isinstance(v, str) for v in default))}
DRAWN = {**NUMERIC, **SIZES}
DRAWN.update({key: st.one_of(DRAWN[key], beyond) for key, beyond in BEYOND_CAPS.items()})
SECTIONS = {key.partition(".")[0] for key in DEFAULTS}
# a nan or inf token: repr of a non-finite float, alone between separators
NON_FINITE = re.compile(r"(?<![A-Za-z_])-?(?:nan|inf)(?![A-Za-z_])", re.IGNORECASE)


def _names_a_key(err: str) -> bool:
    """A full ``section.key``, or the ``section:`` prefix of a domain-object
    builder, followed by the library's name of the parameter."""
    message = err.partition("configuration error: ")[2]
    return any(key in message for key in DEFAULTS) or any(
        message.startswith(f"{section}: ") for section in SECTIONS)


@st.composite
def cases(draw):
    experiment = draw(st.sampled_from(EXPERIMENTS))
    keys = draw(st.lists(st.sampled_from(sorted(DRAWN)), min_size=1, max_size=3, unique=True))
    return experiment, [f"{key}={draw(DRAWN[key])}" for key in keys]


@settings(derandomize=True, max_examples=120, database=None, deadline=None)
@given(cases())
# each of these broke the contract at some point before it was mended
@example(("groupvel", ["grid.snapshot_stride=0"]))
@example(("groupvel", ["grid.n_z=1"]))
@example(("mediums", ["sweep.n_total=1e300"]))
@example(("imbalance", ["sweep.n_total=1e300"]))
@example(("feasibility", ["medium.gamma_e_rad_per_us=0.0"]))
@example(("store", ["pulse.rms_width_um=1e300"]))
@example(("store", ["pulse.rms_width_um=-1.0"]))  # a negative width has a finite square
@example(("store", ["grid.dt_us=2.0"]))
@example(("propagate", ["medium.one_photon_detuning_rad_per_us=1e300"]))
@example(("propagate", ["medium.c_um_per_us=1e300"]))
@example(("propagate", ["pulse.peak_amplitude=0.0"]))
@example(("propagate", ["pulse.center_um=1e300"]))
@example(("gpe-soliton", ["gpe.potential_rad_per_us=0.5"]))
@example(("gpe-soliton", ["gpegrid.dt_us=0.2"]))
@example(("gpe-split", ["soliton.q=1.0"]))
@example(("store", ["medium.length_um=1e308"]))
@example(("propagate", ["medium.length_um=1e308"]))
# one run beyond each work cap
@example(("store", ["grid.t_end_us=1e8"]))
@example(("gpe-soliton", ["gpegrid.t_end_us=1e7"]))
@example(("propagate", ["schedule.omega0_rad_per_us=1e9"]))
@example(("store", ["run.substeps=100000000"]))
@example(("groupvel", [f"curve.points={10**12}"]))
@example(("mediums", [f"sweep.n_scan_points={10**12}"]))
# one run beyond the held-frames budget (1e7 cells) per solver, refused by validate
@example(("propagate", ["grid.n_z=100000000"]))
@example(("gpe-soliton", ["gpegrid.n_z=1000000", "gpegrid.snapshot_stride=1"]))
def test_every_run_exits_by_the_contract(case):
    experiment, sets = case
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch("subprocess.Popen", side_effect=AssertionError("subprocess started")), \
            contextlib.redirect_stderr(io.StringIO()) as err, \
            contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = Path(tmp) / "out"
        args = [arg for s in BASE.get(experiment, []) + sets for arg in ("--set", s)]
        code = cli.main([experiment, "--out", str(out), *args])
        assert code in (0, 2, 3, 4), code
        if code == 0:
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                match = NON_FINITE.search(path.read_text(encoding="utf-8"))
                assert match is None, f"{path.name}: {match.group()}"
            assert sorted(Path(tmp).iterdir()) == [out]
        else:
            assert list(Path(tmp).iterdir()) == []
        if code == 2:
            assert _names_a_key(err.getvalue()), err.getvalue()
