import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slowmol import GaussianPulse, GpeParams, Grid1D, SolitonSpec, Tabulated, TanhRamp
from slowmol.config import (
    RunConfig,
    load_config,
    parse_config,
    parse_pairs,
    serialize_config,
)
from slowmol.errors import ConfigError


def test_empty_document_gives_balanced_defaults():
    cfg = parse_config("")
    assert cfg.experiment == "groupvel"
    assert cfg.medium.n_a == cfg.medium.n_b == 1.5e6   # N = 3e6, eta = 1
    assert cfg.medium.length_um == 1000.0              # 1 mm cell
    assert cfg.schedule.omega0_rad_per_us == pytest.approx(10 * math.pi)
    assert cfg.schedule.t_down_us == 15.0
    assert cfg.schedule.t_up_us == 125.0
    assert cfg.schedule.rate_per_us == 0.15


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("""
    # a comment
    medium.n_a = 2.0e6   # trailing comment

    medium.n_b = 1.0e6
    """)
    assert cfg.medium.n_a == 2.0e6
    assert cfg.medium.n_b == 1.0e6


def test_unknown_keys_are_hard_errors():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("medium.n_c = 1.0")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("bogus.key = 1.0")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("nodots = 1.0")


def test_type_errors_are_named():
    with pytest.raises(ConfigError, match="grid.n_z"):
        parse_config("grid.n_z = lots")
    with pytest.raises(ConfigError, match="run.force"):
        parse_config("run.force = maybe")


def test_duplicate_keys_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("medium.n_a = 1.0\nmedium.n_a = 2.0")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some words")


def test_negative_eta_names_the_invariant():
    with pytest.raises(ConfigError, match="sweep.etas.*positive"):
        parse_config("sweep.etas = -1")


def test_experiment_dispatch_keys():
    cfg = parse_config("experiment = gpe-split\nsoliton.q = 0.8")
    assert cfg.experiment == "gpe-split"
    assert cfg.soliton.q == 0.8
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("experiment = teleport")


def test_roundtrip_identity_on_defaults():
    cfg = RunConfig()
    assert parse_config(serialize_config(cfg)) == cfg


def test_numpy_values_serialize_as_plain_digits():
    defaults = RunConfig()
    cfg = dataclasses.replace(
        defaults,
        medium=dataclasses.replace(defaults.medium, n_a=np.float64(0.5e6)),
        grid=dataclasses.replace(defaults.grid, n_z=np.int64(512)),
        sweep=dataclasses.replace(defaults.sweep, etas=(np.float64(0.25), 4.0)),
    )
    text = serialize_config(cfg)
    for line in ("medium.n_a = 500000.0", "grid.n_z = 512", "sweep.etas = 0.25,4.0"):
        assert line in text.splitlines()
    assert "np." not in text
    assert parse_config(text) == cfg


def test_roundtrip_identity_with_overrides():
    cfg = parse_config("\n".join([
        "experiment = store",
        "preset = desk-storage",
        "medium.n_a = 123456.0",
        "schedule.form = table",
        "schedule.table_times_us = 0,1.5,3",
        "schedule.table_values_rad_per_us = 31.4,15.7,31.4",
        "sweep.etas = 0.25,1,4",
        "run.force = true",
    ]))
    assert parse_config(serialize_config(cfg)) == cfg


@given(n_a=st.floats(min_value=1.0, max_value=1e8, allow_nan=False,
                     allow_infinity=False),
       stride=st.integers(min_value=1, max_value=500),
       force=st.booleans())
def test_roundtrip_identity_property(n_a, stride, force):
    cfg = parse_pairs([
        ("medium.n_a", repr(n_a)),
        ("grid.snapshot_stride", str(stride)),
        ("run.force", "true" if force else "false"),
    ])
    assert parse_config(serialize_config(cfg)) == cfg


def test_desk_preset_rewrites_medium_but_keeps_overrides():
    cfg = parse_config("preset = desk-storage\nmedium.n_a = 777.0")
    assert cfg.medium.c_um_per_us == 2.0
    assert cfg.medium.gamma_e_rad_per_us == 0.0
    assert cfg.medium.n_a == 777.0        # explicit key beats the preset
    assert cfg.medium.n_b == 1000.0


def test_physical_invariants_checked_at_parse_time():
    with pytest.raises(ConfigError, match="medium"):
        parse_config("medium.length_um = -5.0")
    with pytest.raises(ConfigError, match="schedule"):
        parse_config("schedule.rate_per_us = 0.0")
    with pytest.raises(ConfigError, match="grid"):
        parse_config("grid.n_z = 4")
    with pytest.raises(ConfigError, match="table"):
        parse_config("schedule.form = table")
    with pytest.raises(ConfigError, match="soliton.q"):
        parse_config("soliton.q = 1.5")
    with pytest.raises(ConfigError, match="advection"):
        parse_config("run.advection = spectral")


def test_domain_builders():
    cfg = parse_config("preset = desk-storage")
    p = cfg.to_medium_params()
    assert p.c == 2.0
    assert p.g_tilde == 3.0e-3
    grid = cfg.to_grid()
    assert grid.cfl(p.c) == pytest.approx(1.0)
    sched = cfg.to_schedule()
    assert sched.plateau == pytest.approx(10 * math.pi)
    pulse = cfg.to_pulse(grid)
    assert pulse.descriptor.center == 40.0
    gp = cfg.to_gpe_params()
    assert gp.m_total == 1.0


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("medium.n_a = 5.0e6\n", encoding="utf-8")
    cfg = load_config(path, ["medium.n_b = 2.0e6", "experiment=feasibility"])
    assert cfg.medium.n_a == 5.0e6
    assert cfg.medium.n_b == 2.0e6
    assert cfg.experiment == "feasibility"
    with pytest.raises(ConfigError, match="key=value"):
        load_config(None, ["oops"])


def test_overrides_complete_the_file_and_explicit_keys_beat_the_preset(tmp_path):
    path = tmp_path / "run.cfg"
    # a table form whose knots only the overrides give: one validation, after both
    path.write_text("schedule.form = table\n", encoding="utf-8")
    cfg = load_config(path, ["schedule.table_times_us=0,140",
                             "schedule.table_values_rad_per_us=30,30"])
    assert cfg.schedule.table_values_rad_per_us == (30.0, 30.0)
    # an explicit key of the file beats a preset that an override names
    path.write_text("medium.n_a = 5.0\n", encoding="utf-8")
    cfg = load_config(path, ["preset=desk-storage"])
    assert (cfg.preset, cfg.medium.n_a, cfg.medium.n_b) == ("desk-storage", 5.0, 1000.0)
    assert cfg == load_config(None, ["medium.n_a=5.0", "preset=desk-storage"])
    # the file alone still checks its duplicate keys
    path.write_text("medium.n_a = 5.0\nmedium.n_a = 6.0\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="duplicate key"):
        load_config(path, ["medium.n_b=2.0"])


@pytest.mark.parametrize("name, content, match", [
    ("missing.cfg", None, "No such file"),
    ("folder", "directory", "directory"),
    ("latin1.cfg", "medium.n_a = 5.0 # \xb5m\n".encode("latin-1"), "not UTF-8"),
], ids=["missing", "directory", "latin-1"])
def test_an_unreadable_config_file_is_a_config_error(tmp_path, name, content, match):
    path = tmp_path / name
    if content == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    with pytest.raises(ConfigError, match=match) as info:
        load_config(path, [])
    assert str(info.value).startswith(f"--config {path}")


def test_repeated_override_resolves_last_wins():
    cfg = load_config(None, ["medium.n_a=2e6", "grid.n_z=256", "medium.n_a=3e6",
                             "experiment=store", "experiment=propagate"])
    assert cfg.medium.n_a == 3e6
    assert cfg.grid.n_z == 256
    assert cfg.experiment == "propagate"
    # the preset goes first wherever it stands; explicit keys then resolve in order
    cfg = load_config(None, ["medium.n_a=5", "preset=desk-storage", "medium.n_a=7"])
    assert (cfg.preset, cfg.medium.n_a, cfg.medium.n_b) == ("desk-storage", 7.0, 1000.0)
    # only the last preset's values apply
    assert load_config(None, ["preset=desk-storage", "preset=none"]) == RunConfig()
    cfg = load_config(None, ["medium.n_a=5", "preset=desk-storage", "preset=none"])
    assert (cfg.medium.n_a, cfg.medium.n_b) == (5.0, RunConfig().medium.n_b)
    assert (load_config(None, ["preset=none", "preset=desk-storage"])
            == load_config(None, ["preset=desk-storage"]))


def test_first_bad_key_in_order_is_reported():
    with pytest.raises(ConfigError, match="unknown key 'medium.bogus'"):
        load_config(None, ["medium.bogus=1", "medium.n_a=abc"])
    with pytest.raises(ConfigError, match="medium.n_a: cannot parse 'abc'"):
        load_config(None, ["medium.n_a=abc", "medium.bogus=1"])


_GRID = {"z_min": 0.0, "z_max": 1.0, "n_z": 32, "dt": 0.1, "t_end": 1.0}
_RAMP = {"omega0": 1.0, "t_down": 1.0, "t_up": 2.0, "rate": 1.0}
_GPE = {"m_a": 0.5, "m_b": 0.5}


@pytest.mark.parametrize("cls, kwargs, match", [
    (Grid1D, {**_GRID, "dt": math.nan}, "dt"),
    (Grid1D, {**_GRID, "t_end": math.nan}, "t_end"),
    (GaussianPulse, {"center": 0.0, "rms_width": math.nan, "amplitude": 1.0}, "rms_width"),
    (TanhRamp, {**_RAMP, "omega0": math.nan}, "omega0"),
    (TanhRamp, {**_RAMP, "rate": math.nan}, "rate"),
    (Tabulated, {"times": (0.0, 1.0), "values": (1.0, math.nan)}, "nonnegative"),
    (GpeParams, {**_GPE, "m_a": math.nan}, "total mass"),
    (GpeParams, {**_GPE, "n_b": math.nan}, "background densities"),
    (GpeParams, {**_GPE, "background_amp": math.nan}, "background amplitude"),
    (SolitonSpec, {"q": 0.5, "alpha": math.nan}, "alpha"),
])
def test_dataclass_invariants_reject_nan(cls, kwargs, match):
    with pytest.raises(ValueError, match=match):
        cls(**kwargs)
