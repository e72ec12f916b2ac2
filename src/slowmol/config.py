"""Flat key-value run configuration with typed sections.

Document format: one ``section.key = value`` per line, ``#`` comments,
blank lines ignored.  Unknown keys are a hard error, every key has a
default, and parse(serialize(config)) is the identity.  Keys that carry a
physical dimension embed the unit in their name (``_us``, ``_um``,
``_rad_per_us``) so documents stay unambiguous.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field, replace
from pathlib import Path

from .dynamics import (MAX_HELD_CELLS, Grid1D, SignalEnvelope, check_options, check_split_scale,
                       held_frame_cells, matter_step)
from .errors import ConfigError
from .gpe import (GpeParams, SolitonSpec, check_evolution, check_free_background, check_period,
                  check_split, healing_alpha)
from .medium import MediumKind, MediumParams, effective_pair_density, population_split
from .protocol import check_durations
from .reports import fmt_float
from .schedule import ControlSchedule
from .units import rad_per_us_from_hz

EXPERIMENTS = ("groupvel", "propagate", "store", "imbalance", "mediums",
               "gpe-soliton", "gpe-split", "feasibility")
PRESETS = ("none", "desk-storage")
# the most samples of a curve (curve.points) or of an atom-number scan
# (sweep.n_scan_points), 178 times perfbench's largest curve.  On a 2-vCPU
# Xeon, 1e5 curve points take 0.3-0.7 s and 72-84 MB (1e6: 2.8-9.3 s and
# 430-500 MB) in groupvel, imbalance or mediums; a 1e5-point scan, 0.4 s
MAX_SAMPLES = 100_000


def keyed(key: str, check, *args, **kwargs):
    """``check(*args, **kwargs)``, its ``ValueError`` reported as a
    ``ConfigError`` of ``key``: each invariant is stated once, by the library
    module that uses the value, and named here by its key."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


@dataclass(frozen=True)
class MediumConfig:
    g_tilde_rad_per_us: float = 5e-5
    length_um: float = 1000.0
    c_um_per_us: float = 2.998e8
    n_a: float = 1.5e6
    n_b: float = 1.5e6
    gamma_a_rad_per_us: float = 0.0
    gamma_b_rad_per_us: float = 0.0
    gamma_e_rad_per_us: float = rad_per_us_from_hz(5.7e6)
    gamma_g_rad_per_us: float = rad_per_us_from_hz(97.0)
    one_photon_detuning_rad_per_us: float = 0.0
    two_photon_detuning_rad_per_us: float = 0.0


@dataclass(frozen=True)
class ScheduleConfig:
    form: str = "tanh"
    omega0_rad_per_us: float = 10.0 * math.pi
    t_down_us: float = 15.0
    t_up_us: float = 125.0
    rate_per_us: float = 0.15
    table_times_us: tuple[float, ...] = ()
    table_values_rad_per_us: tuple[float, ...] = ()


@dataclass(frozen=True)
class CurveConfig:
    t_end_us: float = 140.0
    points: int = 281


@dataclass(frozen=True)
class GridConfig:
    z_min_um: float = 0.0
    z_max_um: float = 200.0
    n_z: int = 1024
    dt_us: float = 0.0        # 0 selects dt = cfl * dz / c
    cfl: float = 1.0
    t_end_us: float = 140.0
    snapshot_stride: int = 20


@dataclass(frozen=True)
class PulseConfig:
    center_um: float = 40.0
    rms_width_um: float = 8.0
    peak_amplitude: float = 1.0


@dataclass(frozen=True)
class GpeConfig:
    mass_a_us_per_um2: float = 0.5
    mass_b_us_per_um2: float = 0.5
    u_gg_rad_um_per_us: float = 1.0
    u_ab_rad_um_per_us: float = 0.0
    potential_rad_per_us: float = 0.0
    n_a_per_um: float = 0.0
    n_b_per_um: float = 0.0
    background_amp: float = 1.0
    background_decay_per_us: float = 0.0
    nonlinearity: str = "self-consistent"


@dataclass(frozen=True)
class GpeGridConfig:
    z_min_um: float = -50.0
    z_max_um: float = 50.0
    n_z: int = 2048
    dt_us: float = 0.005
    t_end_us: float = 10.0
    snapshot_stride: int = 20


@dataclass(frozen=True)
class SolitonConfig:
    q: float = 0.8
    z0_um: float = 0.0
    direction: int = 1
    seed_separation_widths: float = 3.0


@dataclass(frozen=True)
class SweepConfig:
    n_total: float = 3.0e6
    etas: tuple[float, ...] = (1.0, 2.0, 15.0)
    kinds: tuple[str, ...] = ("atomic-eit", "homonuclear-dimer",
                              "heteronuclear-dimer", "heteronuclear-trimer")
    n_scan_min: float = 1.0e5
    n_scan_max: float = 1.0e7
    n_scan_points: int = 25


@dataclass(frozen=True)
class FeasibilityConfig:
    t_s_us: float = 1.0
    t_storage_us: float = 110.0
    threshold: float = 0.1


@dataclass(frozen=True)
class RunSection:
    force: bool = False
    substeps: int = 0         # 0 selects the automatic subcycle count
    advection: str = "upwind"
    gnuplot: bool = False


# keys the desk-storage preset rewrites before explicit keys apply
_DESK_STORAGE_PRESET = {
    "medium.g_tilde_rad_per_us": 3.0e-3,
    "medium.length_um": 200.0,
    "medium.c_um_per_us": 2.0,
    "medium.n_a": 1000.0,
    "medium.n_b": 1000.0,
    "medium.gamma_a_rad_per_us": 0.0,
    "medium.gamma_b_rad_per_us": 0.0,
    "medium.gamma_e_rad_per_us": 0.0,
    "medium.gamma_g_rad_per_us": 0.0,
}


@dataclass(frozen=True)
class RunConfig:
    experiment: str = "groupvel"
    preset: str = "none"
    medium: MediumConfig = field(default_factory=MediumConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    curve: CurveConfig = field(default_factory=CurveConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    pulse: PulseConfig = field(default_factory=PulseConfig)
    gpe: GpeConfig = field(default_factory=GpeConfig)
    gpegrid: GpeGridConfig = field(default_factory=GpeGridConfig)
    soliton: SolitonConfig = field(default_factory=SolitonConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    feasibility: FeasibilityConfig = field(default_factory=FeasibilityConfig)
    run: RunSection = field(default_factory=RunSection)

    # ---- domain-object builders -------------------------------------

    def to_medium_params(self) -> MediumParams:
        m = self.medium
        return keyed("medium", MediumParams, g_tilde=m.g_tilde_rad_per_us, L=m.length_um,
                     c=m.c_um_per_us, N_a=m.n_a, N_b=m.n_b, gamma_a=m.gamma_a_rad_per_us,
                     gamma_b=m.gamma_b_rad_per_us, gamma_e=m.gamma_e_rad_per_us,
                     gamma_g=m.gamma_g_rad_per_us, Delta=m.one_photon_detuning_rad_per_us,
                     delta=m.two_photon_detuning_rad_per_us)

    def to_schedule(self) -> ControlSchedule:
        s = self.schedule
        if s.form == "tanh":
            return keyed("schedule", ControlSchedule.tanh_ramp, omega0=s.omega0_rad_per_us,
                         t_down=s.t_down_us, t_up=s.t_up_us, rate=s.rate_per_us)
        if s.form == "table":
            if not s.table_times_us:
                raise ConfigError("schedule: table form requires schedule.table_times_us")
            return keyed("schedule", ControlSchedule.tabulated, s.table_times_us,
                         s.table_values_rad_per_us)
        raise ConfigError(f"schedule.form: unknown form {s.form!r}")

    def to_grid(self) -> Grid1D:
        g = self.grid
        if g.dt_us > 0:
            return keyed("grid", Grid1D, z_min=g.z_min_um, z_max=g.z_max_um, n_z=g.n_z,
                         dt=g.dt_us, t_end=g.t_end_us)
        return keyed("grid", Grid1D.for_speed, z_min=g.z_min_um, z_max=g.z_max_um, n_z=g.n_z,
                     c=self.medium.c_um_per_us, t_end=g.t_end_us, cfl=g.cfl)

    def to_pulse(self, grid: Grid1D) -> SignalEnvelope:
        p = self.pulse
        return keyed("pulse", SignalEnvelope.gaussian, grid, center=p.center_um,
                     rms_width=p.rms_width_um, amplitude=p.peak_amplitude)

    def to_gpe_params(self) -> GpeParams:
        g = self.gpe
        return keyed("gpe", GpeParams, m_a=g.mass_a_us_per_um2, m_b=g.mass_b_us_per_um2,
                     u_gg=g.u_gg_rad_um_per_us, u_ab=g.u_ab_rad_um_per_us,
                     v_ext=g.potential_rad_per_us, n_a=g.n_a_per_um, n_b=g.n_b_per_um,
                     background_amp=g.background_amp)

    def to_gpe_grid(self) -> Grid1D:
        g = self.gpegrid
        return keyed("gpegrid", Grid1D, z_min=g.z_min_um, z_max=g.z_max_um, n_z=g.n_z,
                     dt=g.dt_us, t_end=g.t_end_us)

    def to_soliton_spec(self, alpha: float = 1.0) -> SolitonSpec:
        """The configured soliton, with squared healing width ``alpha``."""
        s = self.soliton
        return keyed("soliton.q, soliton.direction", SolitonSpec, q=s.q, z0=s.z0_um,
                     direction=s.direction, alpha=alpha)

    def sweep_kinds(self) -> list[MediumKind]:
        return keyed("sweep.kinds", list, map(MediumKind, self.sweep.kinds))

    def validate(self) -> "RunConfig":
        """Check every physical invariant reachable from the document, each
        through the library's own check (see ``keyed``)."""
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment: {self.experiment!r} is not one of {', '.join(EXPERIMENTS)}")
        if self.preset not in PRESETS:
            raise ConfigError(f"preset: {self.preset!r} is not one of {', '.join(PRESETS)}")
        self.to_medium_params()
        self.to_schedule()
        self.to_grid()
        gpe_params = self.to_gpe_params()
        self.to_gpe_grid()
        self.to_soliton_spec()
        kinds = self.sweep_kinds()
        if not 2 <= self.curve.points <= MAX_SAMPLES:
            raise ConfigError(f"curve.points: need 2 to {MAX_SAMPLES} samples")
        if self.curve.t_end_us <= 0:
            raise ConfigError("curve.t_end_us: must be positive")
        if not kinds:
            raise ConfigError("sweep.kinds: need at least one medium kind")
        if not 0 < self.sweep.n_scan_min < self.sweep.n_scan_max:
            raise ConfigError("sweep.n_scan_min/max: need 0 < min < max")
        keyed("sweep.n_total", population_split, self.sweep.n_total)
        if self.experiment == "mediums":
            # the pair density of every kind, up to the scan's largest N, is a float
            for key, n in (("sweep.n_total", self.sweep.n_total),
                           ("sweep.n_scan_max", self.sweep.n_scan_max)):
                keyed(key, list, (effective_pair_density(kind, n) for kind in kinds))
        if not self.sweep.etas:
            raise ConfigError("sweep.etas: need at least one imbalance ratio")
        keyed("sweep.etas", population_split, self.sweep.n_total, min(self.sweep.etas))
        if not 2 <= self.sweep.n_scan_points <= MAX_SAMPLES:
            raise ConfigError(f"sweep.n_scan_points: need 2 to {MAX_SAMPLES} samples")
        keyed("feasibility.t_s_us", check_durations, t_s=self.feasibility.t_s_us)
        keyed("feasibility.t_storage_us", check_durations,
              t_storage=self.feasibility.t_storage_us)
        if self.feasibility.threshold <= 0:
            raise ConfigError("feasibility.threshold: must be positive")
        keyed("gpe.nonlinearity", check_evolution, nonlinearity=self.gpe.nonlinearity)
        keyed("gpe.background_decay_per_us", check_evolution,
              background_decay_rate=self.gpe.background_decay_per_us)
        keyed("soliton.seed_separation_widths", check_split,
              seed_separation_widths=self.soliton.seed_separation_widths)
        if self.experiment in ("gpe-soliton", "gpe-split"):
            # the healing width 1/sqrt(M U_gg |Phi0|^2) needs both keys
            keyed("gpe.u_gg_rad_um_per_us, gpe.background_amp", healing_alpha, gpe_params)
            keyed("gpe.potential_rad_per_us", check_free_background, gpe_params)
        if self.experiment == "gpe-split":
            keyed("soliton.q", check_split, q=self.soliton.q)
        keyed("run.substeps", check_options, substeps=self.run.substeps)
        keyed("run.advection", check_options, advection=self.run.advection)
        keyed("grid.snapshot_stride", check_options, snapshot_stride=self.grid.snapshot_stride)
        keyed("gpegrid.snapshot_stride", check_options,
              snapshot_stride=self.gpegrid.snapshot_stride)
        if self.experiment in ("store", "propagate"):
            grid = self.to_grid()
            _check_held_frames("grid", grid, self.grid.snapshot_stride, rows=5)
            p = self.to_medium_params()
            if matter_step(p, self.run.substeps) == "split":
                keyed(self._split_scale_keys(p), check_split_scale, p, grid.dt,
                      self.to_schedule().plateau)
        elif self.experiment in ("gpe-soliton", "gpe-split"):
            gpe_grid = self.to_gpe_grid()
            keyed("gpegrid.z_max_um", check_period, gpe_grid)
            _check_held_frames("gpegrid", gpe_grid, self.gpegrid.snapshot_stride, rows=1)
        return self

    def _split_scale_keys(self, p: MediumParams) -> str:
        """The keys to name when a split coupling squares beyond the float
        range: ``medium.length_um`` if g_tilde L or g_tilde sqrt(L) does so at
        a 1 us step already, otherwise the keys that set the outer step dt."""
        try:
            check_split_scale(p, 1.0, 0.0)
        except ValueError:
            return "medium.length_um"
        if self.grid.dt_us > 0:
            return "grid.dt_us"
        return "grid.z_min_um, grid.z_max_um, grid.n_z, grid.cfl, medium.c_um_per_us"


def _check_held_frames(section: str, grid: Grid1D, stride: int, rows: int) -> None:
    """``ConfigError`` if a run would hold more than ``MAX_HELD_CELLS`` frame
    or snapshot cells (``held_frame_cells``): it names the stride where two
    frames would fit, the grid size where they would not."""
    cells = held_frame_cells(grid, stride, rows)
    if cells > MAX_HELD_CELLS:
        key, remedy = ((f"{section}.snapshot_stride", "take a larger stride")
                       if 2 * grid.n_z * rows <= MAX_HELD_CELLS else
                       (f"{section}.n_z", "take fewer points"))
        raise ConfigError(f"{key}: the run would hold {cells:.3g} frame cells (more than "
                          f"{MAX_HELD_CELLS:g}); {remedy}")


# every "section.field" key -> (section, field, value type), in RunConfig's order
_KEYS: dict[str, tuple[str, str, type]] = {
    f"{section}.{name}": (section, name, pytype)
    for section, cls in typing.get_type_hints(RunConfig).items() if dataclasses.is_dataclass(cls)
    for name, pytype in typing.get_type_hints(cls).items()
}


def _finite(key: str, text: str, value: float) -> float:
    # every guard downstream is written as ``x <= 0``, which nan slips past
    if not math.isfinite(value):
        raise ConfigError(f"{key}: {text!r} is not a finite number")
    return value


def _parse_value(key: str, text: str, pytype: type):
    text = text.strip()
    try:
        if pytype is float:
            return _finite(key, text, float(text))
        if pytype is int:
            return int(text)
        if pytype is bool:
            if text.lower() in ("true", "false"):
                return text.lower() == "true"
            raise ValueError("expected true or false")
        if pytype is str:
            return text
        if typing.get_origin(pytype) is tuple:
            if not text:
                return ()
            item_type = typing.get_args(pytype)[0]
            return tuple(_parse_value(key, tok, item_type) for tok in text.split(","))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {text!r} as {pytype.__name__}") from exc
    raise ConfigError(f"{key}: unsupported value type {pytype!r}")


def parse_pairs(pairs: list[tuple[str, str]]) -> RunConfig:
    """The defaults with ``pairs`` applied in order and validated once, so a
    repeated key's last value wins and the first bad key is the one
    reported.  The values are collected per section, and each touched
    section is replaced once."""
    top: dict = {}
    sections: dict[str, dict] = {}

    def put(key: str, value) -> None:
        section_name, field_name, _ = _KEYS[key]
        sections.setdefault(section_name, {})[field_name] = value

    # the last preset rewires the defaults, so resolve it before any other key
    for key, raw in pairs:
        if key == "preset":
            top["preset"] = raw.strip()  # validate rejects a name outside PRESETS
    if top.get("preset") == "desk-storage":
        for preset_key, value in _DESK_STORAGE_PRESET.items():
            put(preset_key, value)
    for key, raw in pairs:
        if key == "preset":
            continue
        if key == "experiment":
            top["experiment"] = raw.strip()
            continue
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}")
        put(key, _parse_value(key, raw, _KEYS[key][2]))
    config = RunConfig()
    for section_name, values in sections.items():
        top[section_name] = replace(getattr(config, section_name), **values)
    return replace(config, **top).validate()


def _document_pairs(text: str) -> list[tuple[str, str]]:
    """The ``(key, raw value)`` pairs of a key-value document, in order."""
    pairs: list[tuple[str, str]] = []
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        pairs.append((key, raw))
    return pairs


def parse_config(text: str) -> RunConfig:
    """Parse a key-value document into a fully validated RunConfig."""
    return parse_pairs(_document_pairs(text))


def serialize_config(config: RunConfig) -> str:
    """Canonical full-document form; parse(serialize(c)) == c."""
    lines = [f"experiment = {config.experiment}", f"preset = {config.preset}"]
    for key, (section_name, field_name, _) in _KEYS.items():
        value = getattr(getattr(config, section_name), field_name)
        text = ",".join(map(fmt_float, value)) if isinstance(value, tuple) else fmt_float(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def load_config(path: str | Path | None,
                overrides: list[str] | None = None) -> RunConfig:
    """Config from an optional file plus repeatable key=value overrides: the
    file's pairs and then the overrides go to one ``parse_pairs``, so an
    override may complete the file and an explicit key beats a preset."""
    pairs: list[tuple[str, str]] = []
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"--config {path}: {exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"--config {path} is not UTF-8 text ({exc.reason} at byte "
                              f"{exc.start})") from exc
        pairs = _document_pairs(text)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, raw = item.partition("=")
        pairs.append((key.strip(), raw))
    return parse_pairs(pairs)
