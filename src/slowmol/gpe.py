"""Molecular matter-wave dynamics: Gross-Pitaevskii evolution, gray
solitons, and the soliton-splitting experiment.

Units follow the rest of the package (um, us, hbar = 1): masses carry
us/um^2, interaction strengths rad*um/us, wavefunctions sqrt(1/um).  The
spatial grid is treated as periodic with period n_z * dz (the inclusive
point set continues past z_max by one spacing).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AliasingWarning, ConfigError, NumericsError, SupersonicError
from .dynamics import Grid1D, capped_outer_steps, check_options

# spectral-tail power fraction above which split_step_evolve warns of aliasing
_ALIASING_TOL = 1e-8
# track_minima: a dip is a local minimum below this fraction of the background
# density, and joins a track at most this many grid cells from its last position
_DIP_DEPTH = 0.9
_MAX_JUMP_CELLS = 20.0
# DipTrajectory.fit_speed fits the trailing half of a track
_FIT_TAIL = 0.5


@dataclass(frozen=True)
class GpeParams:
    """Masses, interactions and background of the molecular condensate.

    ``n_a``/``n_b`` are the background atomic line densities (1/um) that
    shift the effective potential through the cross interaction ``u_ab``;
    ``background_amp`` is |Phi0|, the condensate background amplitude.
    """

    m_a: float                      # particle masses, us/um^2
    m_b: float
    u_gg: float = 0.0               # molecule-molecule interaction, rad*um/us
    u_ab: float = 0.0               # atom-atom cross interaction, rad*um/us
    v_ext: float = 0.0              # uniform external potential, rad/us
    n_a: float = 0.0                # background atomic line densities, 1/um
    n_b: float = 0.0
    background_amp: float = 1.0     # |Phi0|, sqrt(1/um)

    def __post_init__(self):
        # ``not x > 0`` rather than ``x <= 0``: nan must fail every guard
        if not self.m_a + self.m_b > 0:
            raise ValueError("total mass m_a + m_b must be positive")
        if not (self.n_a >= 0 and self.n_b >= 0):
            raise ValueError("background densities must be nonnegative")
        if not self.background_amp >= 0:
            raise ValueError("background amplitude must be nonnegative")

    @property
    def m_total(self) -> float:
        return self.m_a + self.m_b

    @classmethod
    def soliton_units(cls) -> "GpeParams":
        """Natural soliton units: M = 1, U_gg = 1, |Phi0| = 1, zero potential,
        so the sound speed, healing width and chemical potential are all 1."""
        return cls(m_a=0.5, m_b=0.5, u_gg=1.0)


def effective_potential(p: GpeParams) -> float:
    """The uniform effective potential V_ext + sqrt(n_a n_b) * u_ab."""
    return p.v_ext + math.sqrt(p.n_a * p.n_b) * p.u_ab


def v_ext_for_zero_effective(p: GpeParams) -> float:
    """The constant external potential that cancels the interaction shift."""
    return -math.sqrt(p.n_a * p.n_b) * p.u_ab


def sound_speed(p: GpeParams) -> float:
    """Bogoliubov sound speed sqrt(U_gg |Phi0|^2 / (m_a + m_b))."""
    if p.u_gg < 0:
        raise ValueError("sound speed undefined for attractive u_gg")
    return math.sqrt(p.u_gg * p.background_amp**2 / p.m_total)


def grayness(v_nu: float, v_s: float) -> float:
    """Grayness q = sqrt(1 - (v_nu / v_s)^2) of a soliton moving at v_nu."""
    if v_s <= 0:
        raise ValueError("sound speed must be positive")
    if abs(v_nu) > v_s:
        raise SupersonicError("supersonic: no soliton")
    return math.sqrt(max(0.0, 1.0 - (v_nu / v_s) ** 2))


def healing_alpha(p: GpeParams) -> float:
    """Squared healing width alpha = 1 / (M U_gg |Phi0|^2).

    This is the value for which the analytic gray-soliton profile solves
    the equation of motion exactly; sqrt(alpha) is the width scale.  It
    needs a repulsive u_gg and a background, and a product whose
    reciprocal is a positive, finite float: ``ValueError`` otherwise.
    """
    # products, not ``**``: an overflowing float power raises OverflowError
    product = p.m_total * p.u_gg * (p.background_amp * p.background_amp)
    alpha = 1.0 / product if product > 0 else 0.0
    if not 0 < alpha < math.inf:
        raise ValueError("a gray soliton needs a repulsive interaction and a background, "
                         "with a positive, finite healing width 1/sqrt(M U_gg |Phi0|^2) "
                         f"(M U_gg |Phi0|^2 = {product:.3g})")
    return alpha


def u_gg_from_scattering_length(a_gg: float, m_total: float, background_amp: float) -> float:
    """Interaction strength implied by the width convention
    sqrt(alpha) = 1 / (4 pi a_gg)^(1/4) / sqrt(|Phi0|).

    Chosen so that 1/(M U_gg |Phi0|^2) and (sqrt(4 pi a_gg) |Phi0|)^(-1)
    give the same alpha.
    """
    if a_gg <= 0:
        raise ValueError("a_gg must be positive")
    return math.sqrt(4.0 * math.pi * a_gg) / (m_total * background_amp)


@dataclass(frozen=True)
class SolitonSpec:
    """One gray-soliton factor: depth q, center, direction and width."""

    q: float             # grayness in (0, 1]
    z0: float = 0.0      # initial center, um
    direction: int = 1   # +1 moves toward larger z, -1 the opposite
    alpha: float = 1.0   # squared healing width, um^2

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must lie in (0, 1]")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")

    @classmethod
    def for_params(cls, p: GpeParams, q: float, z0: float = 0.0,
                   direction: int = 1) -> "SolitonSpec":
        return cls(q=q, z0=z0, direction=direction, alpha=healing_alpha(p))

    @property
    def width(self) -> float:
        return math.sqrt(self.alpha) / self.q

    def speed(self, v_s: float) -> float:
        return self.direction * v_s * math.sqrt(max(0.0, 1.0 - self.q**2))

    def factor(self, z: np.ndarray) -> np.ndarray:
        """Dimensionless profile i*dir*sqrt(1-q^2) + q*tanh[(q/sqrt(alpha))(z-z0)]."""
        arg = (self.q / math.sqrt(self.alpha)) * (np.asarray(z, dtype=float) - self.z0)
        return 1j * self.direction * math.sqrt(1.0 - self.q**2) + self.q * np.tanh(arg)


@dataclass
class WaveFunction:
    """Complex field on a grid at one instant.  A frame of
    ``split_step_evolve`` also carries the largest spectral-tail fraction of
    any step up to t (0 before the first step)."""

    z: np.ndarray
    psi: np.ndarray
    t: float = 0.0
    max_spectral_tail_fraction: float = 0.0

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.z.shape != self.psi.shape:
            raise ValueError("z and psi must have the same shape")

    @property
    def dz(self) -> float:
        return float(self.z[1] - self.z[0])

    def density(self) -> np.ndarray:
        return np.abs(self.psi) ** 2

    def norm(self) -> float:
        return float(np.sum(self.density()) * self.dz)


def check_period(grid: Grid1D) -> None:
    """``ValueError`` unless the grid's period n_z dz, the span every norm and
    energy integrates over, is a finite float."""
    if not math.isfinite(grid.n_z * grid.dz):
        raise ValueError("the periodic span n_z (z_max - z_min)/(n_z - 1) overflows "
                         "the float range")


def check_free_background(p: GpeParams) -> None:
    """``ValueError`` unless the effective potential (``effective_potential``)
    vanishes, as the analytic soliton profiles require."""
    scale = max(1.0, abs(p.u_gg) * p.background_amp * p.background_amp)
    if not abs(effective_potential(p)) <= 1e-10 * scale:
        raise ValueError(
            "analytic soliton profiles require zero effective potential; "
            "tune v_ext (see v_ext_for_zero_effective)"
        )


def soliton_product(specs: Sequence[SolitonSpec], p: GpeParams,
                    grid: Grid1D) -> WaveFunction:
    """Product of gray-soliton factors on one shared background.

    A single spec gives the plain analytic soliton; two factors with
    opposite directions at one point give the splitting seed, and factors
    with zero net phase winding remain compatible with the periodic grid.
    """
    if not specs:
        raise ValueError("need at least one soliton factor")
    check_free_background(p)
    z = grid.z
    psi = np.full(grid.n_z, p.background_amp, dtype=complex)
    span = grid.z_max - grid.z_min
    for spec in specs:
        if span < 40.0 * spec.width:
            warnings.warn(
                f"domain spans only {span / spec.width:.1f} soliton widths; "
                "wrap-around effects may be visible",
                stacklevel=2,
            )
        psi *= spec.factor(z)
    return WaveFunction(z=z, psi=psi, t=0.0)


def background_phase(p: GpeParams, t0: float, t: float) -> complex:
    """Phase factor exp(-i U_gg |Phi0|^2 (t - t0)) of the constant
    condensate background between t0 and t."""
    if t < t0:
        raise ValueError("t must not precede t0")
    phase = -p.u_gg * p.background_amp**2 * (t - t0)
    return complex(math.cos(phase), math.sin(phase))


def energy_functional(wf: WaveFunction, p: GpeParams) -> float:
    """E[psi] = int(|dpsi/dz|^2/(2M) + V_eff |psi|^2 + (U_gg/2)|psi|^4) dz,
    with the gradient evaluated spectrally on the periodic grid."""
    n = len(wf.psi)
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=wf.dz)
    dpsi = np.fft.ifft(1j * k * np.fft.fft(wf.psi))
    veff = effective_potential(p)
    dens = wf.density()
    integrand = (np.abs(dpsi) ** 2 / (2.0 * p.m_total)
                 + veff * dens + 0.5 * p.u_gg * dens**2)
    return float(np.sum(integrand) * wf.dz)


def conservation_drifts(frames: Sequence[WaveFunction], p: GpeParams,
                        nonlinearity: str) -> dict[str, float]:
    """``norm_drift`` and ``energy_drift``: the relative change of the norm
    and of ``energy_functional`` from the first frame to the last, of frames
    that ``split_step_evolve`` evolved under ``nonlinearity``.  The energy
    is positive wherever ``healing_alpha(p)`` holds (u_gg > 0 and a
    background), as every GPE experiment checks.  A ``"frozen"`` evolution
    does not conserve the functional's (U_gg/2)|psi|^4 term, so its frames
    get the norm drift alone."""
    n0, n1 = frames[0].norm(), frames[-1].norm()
    drifts = {"norm_drift": abs(n1 - n0) / n0}
    if nonlinearity == "self-consistent":
        e0, e1 = (energy_functional(wf, p) for wf in (frames[0], frames[-1]))
        drifts["energy_drift"] = abs(e1 - e0) / e0
    return drifts


def split_step_evolve(
    psi0: WaveFunction,
    p: GpeParams,
    grid: Grid1D,
    *,
    snapshot_stride: int = 10,
    nonlinearity: str = "self-consistent",
    background_decay_rate: float = 0.0,
    on_frame: Optional[Callable[[WaveFunction], None]] = None,
) -> list[WaveFunction]:
    """Symmetric (Strang) split-step spectral evolution of the molecular field,
    ``grid.outer_steps`` steps of ``grid.dt`` to the grid's horizon.

    ``nonlinearity="self-consistent"`` uses U_gg |psi|^2 (the equation the
    analytic soliton solves); ``"frozen"`` uses the background density
    U_gg |Phi0(t)|^2 instead, matching the linearized-background form.  A
    positive ``background_decay_rate`` applies a uniform amplitude decay
    exp(-rate*t), so norm conservation only holds without it; the frozen
    background decays with it.

    The closing kinetic half-step of one step and the opening one of the
    next are fused into one full kinetic step (the standard time-splitting
    spectral form), so a step costs two FFTs: one kinetic half-step opens
    the run, then each step applies the nonlinear phase, transforms,
    multiplies the decay factor into the spectrum and transforms back with
    the full kinetic factor.  A frame closes the half-step from the
    spectrum the step already holds, at one inverse FFT per frame.  This
    is the unfused scheme with its products regrouped: on the default
    ``gpe-soliton`` run the frames differ from the unfused loop by at
    most about 2e-12 in density and phase.

    Every step checks the field for non-finite values (``NumericsError``
    naming the step's time) and measures the fraction of the power that
    the spectral tail holds (0 when there is no power); once per run it
    warns with ``AliasingWarning`` when that passes ``_ALIASING_TOL``, and
    each frame carries the largest fraction so far.  The tail is one
    contiguous block of the spectrum (``_spectral_tail``), so each power is
    one reduction over contiguous memory; the check reads the state and
    never changes it.

    ``on_frame``, if given, is called with each frame as soon as it exists,
    the first one included.
    """
    check_evolution(nonlinearity=nonlinearity, background_decay_rate=background_decay_rate)
    check_options(snapshot_stride=snapshot_stride)
    dt = grid.dt
    n_steps = capped_outer_steps(grid, "gpegrid.t_end_us",
                                 "shorten the horizon or take a longer dt")
    n = grid.n_z
    dz = grid.dz
    veff = effective_potential(p)

    psi = psi0.psi.astype(complex).copy()
    dens0 = np.abs(psi) ** 2
    phase_scale = float(np.max(np.abs(p.u_gg * dens0 + veff)))
    if dt * phase_scale >= 0.1:
        raise ConfigError(
            f"gpegrid.dt_us: dt too coarse for the nonlinear phase: dt*max|U|psi|^2+V| = "
            f"{dt * phase_scale:.3g} >= 0.1"
        )

    k = 2.0 * math.pi * np.fft.fftfreq(n, d=dz)
    kin_half = np.exp(-1j * (k**2) * dt / (4.0 * p.m_total))
    kin_full = kin_half**2
    tail = _spectral_tail(k)
    aliasing_reported = False
    worst_tail = 0.0
    decay = background_decay_rate
    z = grid.z
    frames = []

    def emit(frame_psi: np.ndarray, t: float) -> None:
        frames.append(WaveFunction(z=z, psi=frame_psi, t=t,
                                   max_spectral_tail_fraction=worst_tail))
        if on_frame is not None:
            on_frame(frames[-1])

    emit(psi, psi0.t)
    psi = np.fft.ifft(kin_half * np.fft.fft(psi))  # the opening kinetic half-step
    for step in range(n_steps):
        t_mid = psi0.t + (step + 0.5) * dt
        t_next = psi0.t + (step + 1) * dt
        if nonlinearity == "self-consistent":
            nl = p.u_gg * np.abs(psi) ** 2
        else:
            nl = p.u_gg * (p.background_amp**2 * math.exp(-2.0 * decay * t_mid))
        psi *= np.exp(-1j * (veff + nl) * dt)
        spec = np.fft.fft(psi)
        if decay > 0.0:
            spec *= math.exp(-decay * dt)
        high = spec[tail]
        power = np.vdot(spec, spec).real
        fraction = float(np.vdot(high, high).real / power) if power > 0 else 0.0
        worst_tail = max(worst_tail, fraction)
        if not aliasing_reported and fraction > _ALIASING_TOL:
            warnings.warn(
                f"spectral tail above {_ALIASING_TOL:g} of total power at "
                f"t={t_next:.6g}; grid under-resolves the state",
                AliasingWarning,
                stacklevel=2,
            )
            aliasing_reported = True
        psi = np.fft.ifft(kin_full * spec)
        if not np.all(np.isfinite(psi.view(float))):
            bad = np.nonzero(~np.isfinite(psi.view(float)))[0]
            raise NumericsError("non-finite wavefunction", t=t_next, index=int(bad[0] // 2))
        if (step + 1) % snapshot_stride == 0 or step == n_steps - 1:
            # close the fused half-step: the state at t_next itself
            emit(np.fft.ifft(kin_half * spec), t_next)
    return frames


def _spectral_tail(k: np.ndarray) -> slice:
    """The wavenumbers with |k| >= 0.9 max|k|, as one slice of ``k``.  In FFT
    order they are the highest positive and the most negative ones, which
    sit side by side, for odd and even grid sizes alike."""
    lo, hi = np.flatnonzero(np.abs(k) >= 0.9 * float(np.max(np.abs(k))))[[0, -1]]
    return slice(int(lo), int(hi) + 1)


def check_evolution(*, nonlinearity: str = "self-consistent",
                    background_decay_rate: float = 0.0) -> None:
    """``split_step_evolve``'s option checks (``ConfigError``), each argument
    defaulting to a valid value: ``nonlinearity`` is a mode, the rate >= 0."""
    if nonlinearity not in ("self-consistent", "frozen"):
        raise ConfigError(f"unknown nonlinearity mode {nonlinearity!r}")
    if not background_decay_rate >= 0:
        raise ConfigError("background decay rate must be nonnegative")


@dataclass
class DipTrajectory:
    """Track of one density minimum across frames."""

    times: list[float] = field(default_factory=list)
    positions: list[float] = field(default_factory=list)
    flagged: bool = False

    def __len__(self) -> int:
        return len(self.times)

    def fit_speed(self) -> float:
        """Slope of a linear fit over the trailing half of the track."""
        n = len(self.times)
        if n < 2:
            raise ValueError("need at least two samples to fit a speed")
        start = min(n - 2, int(n * (1.0 - _FIT_TAIL)))
        t = np.asarray(self.times[start:])
        x = np.asarray(self.positions[start:])
        return float(np.polyfit(t, x, 1)[0])


def _frame_minima(wf: WaveFunction, background: float) -> list[float]:
    d = wf.density()
    cut = _DIP_DEPTH * background
    idx = np.nonzero((d[1:-1] < d[:-2]) & (d[1:-1] < d[2:]) & (d[1:-1] < cut))[0] + 1
    out = []
    dz = wf.dz
    for i in idx:
        denom = d[i - 1] - 2.0 * d[i] + d[i + 1]
        frac = 0.0 if denom == 0 else 0.5 * (d[i - 1] - d[i + 1]) / denom
        out.append(float(wf.z[i] + np.clip(frac, -0.5, 0.5) * dz))
    return out


def track_minima(frames: Sequence[WaveFunction], *,
                 background_density: float) -> list[DipTrajectory]:
    """Locate density dips below ``_DIP_DEPTH`` times ``background_density``
    in every frame and associate them across frames by nearest-neighbor
    continuity, at most ``_MAX_JUMP_CELLS`` cells from frame to frame.
    Contested associations flag the trajectories involved rather than
    merging them."""
    if len(frames) < 2:
        raise ValueError("need at least two frames")
    max_jump = _MAX_JUMP_CELLS * frames[0].dz

    active: list[DipTrajectory] = []
    done: list[DipTrajectory] = []
    for wf in frames:
        minima = _frame_minima(wf, background_density)
        claims: dict[int, list[float]] = {}
        unmatched: list[float] = []
        for pos in minima:
            best, best_d = -1, math.inf
            for j, tr in enumerate(active):
                dist = abs(pos - tr.positions[-1])
                if dist < best_d:
                    best, best_d = j, dist
            if best >= 0 and best_d <= max_jump:
                claims.setdefault(best, []).append(pos)
            else:
                unmatched.append(pos)
        survivors: list[DipTrajectory] = []
        for j, tr in enumerate(active):
            if j in claims:
                cands = claims[j]
                cands.sort(key=lambda x: abs(x - tr.positions[-1]))
                if len(cands) > 1:
                    tr.flagged = True  # crossing dips: ambiguous association
                    unmatched.extend(cands[1:])
                tr.times.append(wf.t)
                tr.positions.append(cands[0])
                survivors.append(tr)
            else:
                done.append(tr)
        for pos in unmatched:
            survivors.append(DipTrajectory(times=[wf.t], positions=[pos]))
        active = survivors
    done.extend(active)
    return done


def check_split(*, q: float = 0.5, seed_separation_widths: float = 0.0) -> None:
    """``soliton_split_experiment``'s argument checks (``ValueError``), each
    defaulting to a valid value: 0 < q < 1 (a moving soliton), widths >= 0."""
    if not 0.0 < q < 1.0:
        raise ValueError("splitting requires q strictly inside (0, 1)")
    if not seed_separation_widths >= 0:
        raise ValueError("seed_separation_widths must be nonnegative")


@dataclass(frozen=True)
class SplitResult:
    """What ``soliton_split_experiment`` computes: its ``params``, its
    ``scalars`` and, after a split, the frame times ``t`` at which both
    outermost persistent dips are tracked with their positions ``z_left``
    and ``z_right``; the tracks are empty when the split fails."""

    params: dict
    scalars: dict
    t: np.ndarray = field(default_factory=lambda: np.empty(0))
    z_left: np.ndarray = field(default_factory=lambda: np.empty(0))
    z_right: np.ndarray = field(default_factory=lambda: np.empty(0))


def soliton_split_experiment(
    q: float,
    p: GpeParams,
    grid: Grid1D,
    *,
    z0: float = 0.0,
    seed_separation_widths: float = 3.0,
    snapshot_stride: int = 10,
    nonlinearity: str = "self-consistent",
    background_decay_rate: float = 0.0,
) -> SplitResult:
    """Seed two opposite-velocity gray-soliton factors around one point and
    watch them split into counter-propagating dips.

    The factors sit ``seed_separation_widths`` soliton widths apart around
    ``z0`` (a few percent of the domain).  A strictly coincident product is
    not the exact two-soliton datum and reshapes the emerging solitons
    (about 19% excess speed for q = 0.8); from three widths on, the
    late-time speeds match +-v_s*sqrt(1-q^2) to well under a percent.
    The seed evolves under ``split_step_evolve`` with ``nonlinearity``;
    only a ``"self-consistent"`` run, the equation the analytic solitons
    solve, reports that speed as ``v_expected`` (a parameter and a scalar)
    and an ``energy_drift`` (``conservation_drifts``).  Fewer than two
    persistent dips mark the experiment as failed with diagnostics in the
    scalars.
    """
    check_split(q=q, seed_separation_widths=seed_separation_widths)
    alpha = healing_alpha(p)
    half_gap = 0.5 * seed_separation_widths * math.sqrt(alpha) / q
    seed = soliton_product(
        [SolitonSpec(q=q, z0=z0 + half_gap, direction=+1, alpha=alpha),
         SolitonSpec(q=q, z0=z0 - half_gap, direction=-1, alpha=alpha)],
        p, grid,
    )
    frames = split_step_evolve(
        seed, p, grid,
        snapshot_stride=snapshot_stride,
        nonlinearity=nonlinearity,
        background_decay_rate=background_decay_rate,
    )
    v_s = sound_speed(p)
    expected = ({"v_expected": v_s * math.sqrt(1.0 - q**2)}
                if nonlinearity == "self-consistent" else {})
    trajectories = track_minima(frames, background_density=p.background_amp**2)

    n_frames = len(frames)
    tail = frames[-1].max_spectral_tail_fraction
    # The seeding instant itself is a legitimate association ambiguity (one
    # dip becomes two), so persistence is judged by track length alone and
    # the ambiguity flags are reported instead of filtering.
    persistent = [tr for tr in trajectories if len(tr) >= max(3, n_frames // 2)]
    persistent.sort(key=lambda tr: tr.positions[-1])

    params = {"q": q, "z0": z0, "v_s": v_s, **expected,
              "seed_separation_widths": seed_separation_widths,
              "background_decay_rate": background_decay_rate}
    if len(persistent) < 2:
        return SplitResult(params, {
            "succeeded": False,
            "n_trajectories": len(trajectories),
            "n_persistent": len(persistent),
            "n_frames": n_frames,
            "max_spectral_tail_fraction": tail,
        })

    left, right = persistent[0], persistent[-1]
    common = sorted(set(left.times) & set(right.times))
    z_left = np.asarray([left.positions[left.times.index(t)] for t in common])
    z_right = np.asarray([right.positions[right.times.index(t)] for t in common])
    sep = z_right - z_left
    skip = max(1, len(sep) // 5)  # ignore the seeding transient
    tol = float(grid.dz) * 0.5
    monotone = bool(np.all(np.diff(sep[skip:]) > -tol))

    return SplitResult(params, {
        "succeeded": True,
        "n_persistent": len(persistent),
        "n_flagged": sum(tr.flagged for tr in persistent),
        "v_left": left.fit_speed(),
        "v_right": right.fit_speed(),
        **expected,
        "separation_monotone": monotone,
        "max_spectral_tail_fraction": tail,
        **conservation_drifts(frames, p, nonlinearity),
    }, np.asarray(common), z_left, z_right)
