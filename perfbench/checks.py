"""Correctness checks on each request's outputs.

Every check returns a list of problems; an empty list means the request is
correct.  The tolerances are the ones the acceptance suite enforces
(tests/test_acceptance.py), none loosened:

* store (criteria 5 and 6): fidelity >= 0.95, mapping residual <= 0.03,
  relative drift of Q1, Q2 and Q3 + boundary flux <= 1e-6;
* gpe-soliton (criterion 7): norm drift rate <= 1e-10 per us, energy drift
  <= 1e-6, final minimum density within 1% of (1 - q^2) |Phi0|^2, dip
  speed within 2% of v_s sqrt(1 - q^2);
* golden cases (criterion 10): byte-identical to tests/golden;
* wea queries: centroid shift equal to a trapezoid integral of
  ``protocol.velocity_curve`` to WEA_REL_TOL;
* every output file of every request: no non-finite number, with one
  exception.  ``protocol.feasibility_check`` sets the optical depth
  g^2 N_a N_b L / (gamma2 c) to ``math.inf`` on purpose when gamma2 = 0, so
  on such media (the lossless desk preset) the summary line
  ``optical_depth = inf`` is the exact value and is not counted.  Any other
  nan or inf, in any file, fails the request.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

FIDELITY_MIN = 0.95
MAPPING_RESIDUAL_MAX = 0.03
CHARGE_DRIFT_MAX = 1e-6
NORM_RATE_MAX = 1e-10
ENERGY_DRIFT_MAX = 1e-6
DEPTH_REL_TOL = 0.01
SPEED_REL_TOL = 0.02
# The tolerance of the dense-trapezoid oracle test in tests/test_dynamics.py.
# On the generated tanh ramps a 40001-node trapezoid rule is itself within
# 1e-8 of a converged integral, and wea_propagate within 1e-9.
WEA_TRAPEZOID_NODES = 40001
WEA_REL_TOL = 1e-7

# Outputs are written with repr(float), so a non-finite value reads nan or inf.
_NON_FINITE = re.compile(rb"(?<![A-Za-z_])[-+]?(nan|inf)(inity)?(?![A-Za-z_])", re.IGNORECASE)


def output_files(outdir: Path) -> list[Path]:
    return sorted(p for p in Path(outdir).rglob("*") if p.is_file())


def exact_infinities(config) -> frozenset[str]:
    """Summary keys whose value is infinite by definition for this config."""
    lossless = config.to_medium_params().gamma2 == 0.0
    return frozenset({"optical_depth"}) if lossless else frozenset()


def non_finite(outdir: Path, exact: frozenset[str] = frozenset()) -> list[str]:
    problems = []
    for path in output_files(outdir):
        data = path.read_bytes()
        low = data.lower()  # a fast pre-filter; the pattern decides
        if not (b"nan" in low or b"inf" in low):
            continue
        if exact and path.name == "summary.txt":
            allowed = {f"{key} = inf".encode() for key in exact}
            data = b"\n".join(line for line in data.split(b"\n") if line not in allowed)
        if _NON_FINITE.search(data):
            problems.append(f"non-finite number in {path.relative_to(outdir)}")
    return problems


def summary_values(outdir: Path) -> dict[str, str]:
    out = {}
    for line in (Path(outdir) / "summary.txt").read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def golden(outdir: Path, golden_dir: Path) -> list[str]:
    refs = sorted(golden_dir.iterdir()) if golden_dir.is_dir() else []
    if not refs:
        return [f"no golden files in {golden_dir}"]
    problems = []
    for ref in refs:
        got = Path(outdir) / ref.name
        if not got.is_file() or got.read_bytes() != ref.read_bytes():
            problems.append(f"{ref.name} differs from the golden file")
    return problems


def charge_drift(snapshots, p) -> float:
    """Worst relative drift of Q1, Q2 and Q3 + boundary flux (criterion 5)."""
    from slowmol.dynamics import conserved_charges

    q0 = conserved_charges(snapshots[0], p)
    worst = 0.0
    for s in snapshots:
        q = conserved_charges(s, p)
        for i in range(3):
            corr = s.boundary_photon_flux if i == 2 else 0.0
            worst = max(worst, abs(q[i] + corr - q0[i]) / abs(q0[i]))
    return worst


def store(outdir: Path, report, config, stats: dict) -> list[str]:
    """Criteria 5 and 6 on one storage/retrieval run.

    The fidelity and mapping residual are read from the written summary;
    the charges need all five fields, which only the in-memory report
    returned by ``protocol.run_storage_retrieval`` carries.
    """
    if report is None:
        return ["no storage report was returned"]
    values = summary_values(outdir)
    try:
        fidelity = float(values["fidelity"])
        residual = float(values["mapping_residual"])
        efficiency = float(values["efficiency"])
    except (KeyError, ValueError) as exc:
        return [f"summary.txt lacks a storage scalar: {exc}"]
    drift = charge_drift(report.snapshots, config.to_medium_params())
    drift = float(drift)
    stats["dynamics.charge_drift_max"] = max(stats.get("dynamics.charge_drift_max", 0.0), drift)
    stats["protocol.fidelity"] = min(stats.get("protocol.fidelity", 1.0), fidelity)
    stats["protocol.efficiency"] = min(stats.get("protocol.efficiency", math.inf), efficiency)
    stats["protocol.mapping_residual"] = max(stats.get("protocol.mapping_residual", 0.0),
                                             residual)
    problems = []
    if not fidelity >= FIDELITY_MIN:
        problems.append(f"fidelity {fidelity} < {FIDELITY_MIN}")
    if not residual <= MAPPING_RESIDUAL_MAX:
        problems.append(f"mapping residual {residual} > {MAPPING_RESIDUAL_MAX}")
    if not drift <= CHARGE_DRIFT_MAX:
        problems.append(f"charge drift {drift:.3e} > {CHARGE_DRIFT_MAX}")
    return problems


def _read_frame(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    body = path.read_text(encoding="utf-8").split("\n", 1)[1]
    cols = np.array(list(map(float, body.replace("\n", ",").rstrip(",").split(","))))
    cols = cols.reshape(-1, 3)
    return cols[:, 0], cols[:, 1], cols[:, 2]


def gpe_soliton(outdir: Path, config, stats: dict) -> list[str]:
    """Criterion 7 on one gray-soliton run, from the written frames."""
    from slowmol.gpe import WaveFunction, energy_functional, sound_speed

    p = config.to_gpe_params()
    q = config.soliton.q
    frames_dir = Path(outdir) / "frames"
    manifest = (frames_dir / "frames.csv").read_text(encoding="utf-8").split()[1:]
    if len(manifest) < 2:
        return ["fewer than two frames written"]
    norms, energies, times = [], [], []
    density = None
    for row in manifest:
        _, t, fname = row.split(",")
        z, density, phase = _read_frame(frames_dir / fname)
        wf = WaveFunction(z=z, psi=np.sqrt(density) * np.exp(1j * phase), t=float(t))
        norms.append(wf.norm())
        energies.append(energy_functional(wf, p))
        times.append(wf.t)
    dt = config.gpegrid.dt_us
    norm_rate = max(abs(n - norms[0]) / norms[0] / max(t, dt)
                    for n, t in zip(norms[1:], times[1:]))
    energy_drift = max(abs(e - energies[0]) / abs(energies[0]) for e in energies[1:])
    depth = float(density.min())
    depth_expected = (1.0 - q**2) * p.background_amp**2
    v_expected = sound_speed(p) * math.sqrt(1.0 - q**2)
    problems = []
    try:
        v_measured = float(summary_values(outdir)["measured_speed_um_per_us"])
        speed_err = abs(abs(v_measured) - v_expected) / v_expected
    except (KeyError, ValueError):
        speed_err = math.inf
        problems.append("summary.txt lacks measured_speed_um_per_us")
    stats["gpe.norm_drift"] = max(stats.get("gpe.norm_drift", 0.0), norm_rate)
    stats["gpe.energy_drift"] = max(stats.get("gpe.energy_drift", 0.0), energy_drift)
    stats["gpe.speed_err"] = max(stats.get("gpe.speed_err", 0.0), speed_err)
    if not norm_rate <= NORM_RATE_MAX:
        problems.append(f"norm drift rate {norm_rate:.3e}/us > {NORM_RATE_MAX}")
    if not energy_drift <= ENERGY_DRIFT_MAX:
        problems.append(f"energy drift {energy_drift:.3e} > {ENERGY_DRIFT_MAX}")
    if not abs(depth - depth_expected) <= DEPTH_REL_TOL * depth_expected:
        problems.append(f"final minimum density {depth} vs {depth_expected}")
    if not speed_err < SPEED_REL_TOL:
        problems.append(f"dip speed error {speed_err:.3%}")
    return problems


def wea(env0, result, sched, p, t: float) -> list[str]:
    """The closed-form translation against an independent trapezoid
    integral of the sampled group velocity (lossless media only)."""
    from slowmol.protocol import velocity_curve

    if not np.all(np.isfinite(result.samples.view(float))):
        return ["non-finite wea_propagate samples"]
    shift = result.descriptor.center - env0.descriptor.center
    ts = np.linspace(0.0, t, WEA_TRAPEZOID_NODES)
    vg = velocity_curve(p, sched, ts)
    ref = float(np.sum(0.5 * (vg[1:] + vg[:-1]) * np.diff(ts)))
    if not abs(shift - ref) <= WEA_REL_TOL * abs(ref):
        return [f"wea shift {shift!r} vs trapezoid {ref!r}"]
    return []
