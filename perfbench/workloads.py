"""Seeded workload generators.

Each workload turns a seed into a list of requests.  A request is a
complete slowmol configuration document plus how to run it: ``cli``
requests go through ``slowmol.cli.run(config, outdir)``, ``wea`` requests
are closed-form ``slowmol.dynamics.wea_propagate`` queries built from the
document's medium, schedule, grid and pulse sections, evaluated at
``grid.t_end_us``.  The program under test only ever sees these documents.

``tiny=True`` shrinks every workload so that the benchmark's own tests
run in seconds; the timed benchmark always uses the full size.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

WORKLOADS = ("store-desk", "gpe-soliton", "analytic-sweep")

# Acceptance criterion 10 cases, pinned byte for byte by tests/golden.
GOLDEN_CASES = {
    "groupvel": {"experiment": "groupvel", "medium.g_tilde_rad_per_us": 5e-5,
                 "medium.n_a": 1.0e6, "medium.n_b": 5.0e6, "curve.points": 57},
    "imbalance": {"experiment": "imbalance", "sweep.etas": (1.0, 2.0, 15.0),
                  "curve.points": 57},
}


@dataclass(frozen=True)
class Request:
    kind: str            # "cli" or "wea"
    label: str           # experiment name, or "wea"
    text: str            # configuration document
    golden: str | None = None


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _doc(pairs: dict) -> str:
    return "".join(f"{key} = {_fmt(value)}\n" for key, value in pairs.items())


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def digest(requests: list[Request]) -> str:
    """SHA-256 over every generated document, in order."""
    h = hashlib.sha256()
    for req in requests:
        h.update(f"{req.kind}\0{req.label}\0".encode())
        h.update(req.text.encode())
    return h.hexdigest()


# ---------------------------------------------------------------- store-desk

def store_desk(rng: random.Random, tiny: bool = False) -> list[Request]:
    """One desk-scale storage/retrieval experiment.

    Pulse centre in [34, 48] um and rms width in [6, 10] um keep the
    feasibility gate open (compression margin width/L <= 0.05) and leave
    fidelity, mapping residual and charge drift far inside their bounds.
    """
    pairs = {
        "experiment": "store", "preset": "desk-storage",
        "grid.n_z": 1024, "grid.t_end_us": 140.0, "grid.snapshot_stride": 20,
        "run.substeps": 0,
        "pulse.center_um": rng.uniform(34.0, 48.0),
        "pulse.rms_width_um": rng.uniform(6.0, 10.0),
    }
    if tiny:
        # same physics on a compressed schedule and a coarse grid
        pairs.update({"grid.n_z": 256, "grid.t_end_us": 40.0,
                      "grid.snapshot_stride": 10, "schedule.t_down_us": 8.0,
                      "schedule.t_up_us": 25.0, "schedule.rate_per_us": 0.5})
    return [Request("cli", "store", _doc(pairs))]


# --------------------------------------------------------------- gpe-soliton

GPE_EXPERIMENTS_PER_PASS = 4


def gpe_soliton(rng: random.Random, tiny: bool = False) -> list[Request]:
    """Default gray-soliton runs: n_z=2048, 2000 split steps, 101 frames.

    q in [0.6, 0.9] and z0 in [-10, 10] um keep both dips of the evolved
    pair well apart and away from the periodic seam over the horizon.
    """
    out = []
    for _ in range(1 if tiny else GPE_EXPERIMENTS_PER_PASS):
        pairs = {
            "experiment": "gpe-soliton",
            "gpegrid.n_z": 2048, "gpegrid.dt_us": 0.005, "gpegrid.t_end_us": 10.0,
            "gpegrid.snapshot_stride": 20,
            "soliton.q": rng.uniform(0.6, 0.9),
            "soliton.z0_um": rng.uniform(-10.0, 10.0),
        }
        if tiny:
            pairs.update({"gpegrid.n_z": 512, "gpegrid.t_end_us": 2.0})
        out.append(Request("cli", "gpe-soliton", _doc(pairs)))
    return out


# ------------------------------------------------------------ analytic-sweep

# Requests of each kind in one pass; the order is shuffled by the seed.
ANALYTIC_MIX = {"groupvel": 200, "imbalance": 100, "mediums": 40,
                "feasibility": 100, "wea": 160}


def _tanh_values(t, omega0, t_down, t_up, rate):
    return [omega0 * (1.0 - 0.5 * math.tanh(rate * (x - t_down))
                      + 0.5 * math.tanh(rate * (x - t_up))) for x in t]


def _schedule(rng: random.Random, omega_lo: float, omega_hi: float,
              tabulated: bool) -> dict:
    """A tanh ramp with a random plateau, or a table sampled from one."""
    omega0 = rng.uniform(omega_lo, omega_hi)
    t_down = rng.uniform(10.0, 20.0)
    t_up = rng.uniform(100.0, 130.0)
    rate = rng.uniform(0.1, 0.3)
    if not tabulated:
        return {"schedule.form": "tanh", "schedule.omega0_rad_per_us": omega0,
                "schedule.t_down_us": t_down, "schedule.t_up_us": t_up,
                "schedule.rate_per_us": rate}
    knots = rng.randint(4, 40)
    times = tuple(140.0 * k / (knots - 1) for k in range(knots))
    values = tuple(_tanh_values(times, omega0, t_down, t_up, rate))
    return {"schedule.form": "table", "schedule.table_times_us": times,
            "schedule.table_values_rad_per_us": values}


def _physical_medium(rng: random.Random) -> dict:
    # default decays stay on, so every velocity and margin is finite
    return {"medium.g_tilde_rad_per_us": _loguniform(rng, 2e-5, 1e-4),
            "medium.n_a": _loguniform(rng, 3e5, 1e7),
            "medium.n_b": _loguniform(rng, 3e5, 1e7)}


def _analytic_request(kind: str, rng: random.Random) -> Request:
    if kind == "wea":
        # Lossless desk medium: only there wea_propagate's velocity and
        # protocol.velocity_curve are the same formula.  Tanh ramps only:
        # for tables wea_propagate integrates with fixed 12-node panels and
        # misses the trapezoid reference by up to ~1e-4 (see README.md).
        pairs = {"experiment": "propagate", "preset": "desk-storage",
                 "medium.g_tilde_rad_per_us": rng.uniform(1.5e-3, 6e-3),
                 "medium.n_a": rng.uniform(500.0, 2000.0),
                 "medium.n_b": rng.uniform(500.0, 2000.0),
                 **_schedule(rng, 5 * math.pi, 15 * math.pi, tabulated=False),
                 "grid.n_z": 512, "grid.t_end_us": rng.uniform(1.0, 140.0),
                 "pulse.center_um": rng.uniform(30.0, 60.0),
                 "pulse.rms_width_um": rng.uniform(5.0, 10.0)}
        return Request("wea", "wea", _doc(pairs))
    pairs = {"experiment": kind, **_physical_medium(rng),
             **_schedule(rng, 2 * math.pi, 20 * math.pi, tabulated=rng.random() < 0.5),
             "curve.points": rng.randint(57, 561)}
    if kind == "imbalance":
        etas = tuple(_loguniform(rng, 1 / 15, 15.0) for _ in range(rng.randint(1, 6)))
        pairs.update({"sweep.etas": etas, "sweep.n_total": _loguniform(rng, 1e6, 1e7)})
    elif kind == "mediums":
        pairs["sweep.n_total"] = _loguniform(rng, 1e6, 1e7)
    elif kind == "feasibility":
        pairs.update({"feasibility.t_s_us": rng.uniform(0.5, 5.0),
                      "feasibility.t_storage_us": rng.uniform(10.0, 300.0)})
    return Request("cli", kind, _doc(pairs))


def analytic_sweep(rng: random.Random, tiny: bool = False) -> list[Request]:
    """A seeded mix of small analytic requests plus the two golden cases."""
    kinds = [k for k, n in ANALYTIC_MIX.items()
             for _ in range(max(1, n // 40) if tiny else n)]
    rng.shuffle(kinds)
    out = [_analytic_request(k, rng) for k in kinds]
    for name, pairs in GOLDEN_CASES.items():
        out.insert(rng.randrange(len(out) + 1),
                   Request("cli", pairs["experiment"], _doc(pairs), golden=name))
    return out


_GENERATORS = {"store-desk": store_desk, "gpe-soliton": gpe_soliton,
               "analytic-sweep": analytic_sweep}


def generate(workload: str, seed: int, tiny: bool = False) -> list[Request]:
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), tiny)
