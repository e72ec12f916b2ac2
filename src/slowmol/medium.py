"""Analytic properties of the hybrid atom-molecule slow-light medium.

Conventions: the stored coupling ``g_tilde`` multiplies sqrt(N_a*N_b) to
form the collective Rabi frequency, so the light/matter mixing angle obeys
tan(theta)^2 = g_tilde^2 N_a N_b / Omega^2 with N_a, N_b plain particle
counts.  All frequencies are angular (rad/us), lengths um, and the group
velocity comes out in um/us (= m/s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import StoppedLightError
from .units import C_VACUUM_UM_PER_US, rad_per_us_from_hz, rad_per_us_from_per_s


@dataclass(frozen=True)
class MediumParams:
    """Physical constants of the two-species photoassociation medium.

    ``g_tilde`` is the canonical stored coupling (the bare photon-matter
    coupling times sqrt(quantization length)); nothing downstream needs the
    bare coupling except through ``g_tilde`` and ``L``.
    """

    g_tilde: float                   # collective coupling, rad/us per sqrt(particle pair)
    L: float = 1000.0                # quantization length, um
    c: float = C_VACUUM_UM_PER_US    # signal vacuum speed, um/us
    N_a: float = 1.5e6               # species-A atom count
    N_b: float = 1.5e6               # species-B atom count
    gamma_a: float = 0.0             # matter-state decay rates, rad/us
    gamma_b: float = 0.0
    gamma_e: float = 0.0
    gamma_g: float = 0.0
    Delta: float = 0.0               # one-photon detuning, rad/us
    delta: float = 0.0               # two-photon detuning, rad/us

    def __post_init__(self):
        # ``not x > 0`` rather than ``x <= 0``: nan must fail every guard
        if not self.L > 0:
            raise ValueError("quantization length L must be positive")
        if not self.c > 0:
            raise ValueError("vacuum speed c must be positive")
        for name in ("g_tilde", "N_a", "N_b", "gamma_a", "gamma_b", "gamma_e", "gamma_g"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        if not (math.isfinite(self.Delta) and math.isfinite(self.delta)):
            raise ValueError("detunings Delta, delta must be finite")
        # products, not ``**``: an overflowing float power raises OverflowError
        if not math.isfinite(self.g_tilde * self.g_tilde * self.N_a * self.N_b):
            raise ValueError("g_tilde^2 N_a N_b (the collective coupling squared) "
                             "overflows a float")

    @property
    def gamma1(self) -> float:
        """Transversal decay rate of the ground-molecule coherence."""
        return self.gamma_a + self.gamma_b + self.gamma_g

    @property
    def gamma2(self) -> float:
        """Transversal decay rate of the excited-molecule coherence."""
        return self.gamma_a + self.gamma_b + self.gamma_e

    @property
    def lossless(self) -> bool:
        """Every matter decay rate is 0, so the charges Q1-Q3 are conserved."""
        return self.gamma_a == self.gamma_b == self.gamma_e == self.gamma_g == 0.0

    @property
    def pair_coupling_sq(self) -> float:
        """Square of the collective coupling, g_tilde^2 N_a N_b, in (rad/us)^2."""
        return self.g_tilde**2 * self.N_a * self.N_b

    @classmethod
    def krb(cls) -> "MediumParams":
        """Typical K-Rb parameters: N_K = 1e6, N_Rb = 5e6, g_tilde = 50/s,
        gamma1 = 2pi x 97 Hz, gamma2 = 2pi x 5.7 MHz, L = 1 mm.

        Only the sums gamma1 and gamma2 are physical here; they are stored
        entirely on gamma_g and gamma_e respectively.
        """
        return cls(
            g_tilde=rad_per_us_from_per_s(50.0),
            L=1000.0,
            N_a=1.0e6,
            N_b=5.0e6,
            gamma_g=rad_per_us_from_hz(97.0),
            gamma_e=rad_per_us_from_hz(5.7e6),
        )


class MediumKind(Enum):
    """Matter-wave medium families compared in the slowdown scaling study."""

    ATOMIC_EIT = "atomic-eit"
    HOMONUCLEAR_DIMER = "homonuclear-dimer"
    HETERONUCLEAR_DIMER = "heteronuclear-dimer"
    HETERONUCLEAR_TRIMER = "heteronuclear-trimer"

    @property
    def density_exponent(self) -> int:
        """Power of N_total entering the effective pair density."""
        return _DENSITY_EXPONENT[self]


_DENSITY_EXPONENT = {
    MediumKind.ATOMIC_EIT: 1,
    MediumKind.HOMONUCLEAR_DIMER: 2,
    MediumKind.HETERONUCLEAR_DIMER: 2,
    MediumKind.HETERONUCLEAR_TRIMER: 3,
}


@dataclass(frozen=True)
class MixingState:
    """Light/matter mixing angle and the group velocity it implies."""

    theta: float   # radians, in [0, pi/2]
    v_g: float     # um/us, in (0, c]


def mixing_angle(p: MediumParams, omega: float) -> float:
    """Mixing angle theta = atan(sqrt(g_tilde^2 N_a N_b) / Omega).

    Returns pi/2 for omega = 0 with a coupled medium (stopped light) and 0
    for the doubly degenerate omega = coupling = 0 case.
    """
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    return math.atan2(math.sqrt(p.pair_coupling_sq), omega)


def mixing_state(p: MediumParams, omega: float) -> MixingState:
    theta = mixing_angle(p, omega)
    return MixingState(theta=theta, v_g=p.c * math.cos(theta) ** 2)


def slowdown(gc2, omega, gamma_sq=0.0):
    """Slowdown factor c/v_g - 1 = gc2 / (omega^2 + gamma_sq), elementwise, for
    gc2 = g_tilde^2 N_a N_b and gamma_sq = gamma1*gamma2: inf where the
    denominator vanishes or the quotient overflows in a coupled medium, 0
    wherever gc2 = 0.  Every group velocity in the package is
    c / (1 + slowdown(...)).
    """
    eff = omega**2 + gamma_sq
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(np.equal(gc2, 0.0), 0.0, np.divide(gc2, eff))


def group_velocity(p: MediumParams, omega: float) -> float:
    """Ideal slow-light group velocity c / (1 + g_tilde^2 N_a N_b / Omega^2)."""
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    if omega == 0:
        raise StoppedLightError(
            "group velocity is zero at omega=0; use velocity_floor for the decay limit"
        )
    return p.c / (1.0 + float(slowdown(p.pair_coupling_sq, omega)))


def group_velocity_with_decay(p: MediumParams, omega: float) -> float:
    """Decay-corrected group velocity: Omega^2 -> Omega^2 + gamma1*gamma2.

    Finite at omega = 0 whenever gamma1*gamma2 > 0, and never below the
    ideal value at the same omega.
    """
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    factor = float(slowdown(p.pair_coupling_sq, omega, p.gamma1 * p.gamma2))
    if factor == math.inf:
        raise StoppedLightError(
            "group velocity is zero at omega=0; use velocity_floor for the decay limit"
        )
    return p.c / (1.0 + factor)


def velocity_floor(p: MediumParams) -> float:
    """Nonzero group velocity left at switched-off control due to decay;
    ``StoppedLightError`` without decay, or where the floor underflows to 0."""
    if p.gamma1 * p.gamma2 <= 0.0:
        raise StoppedLightError("no decay floor; velocity is zero at omega=0")
    try:
        return group_velocity_with_decay(p, 0.0)
    except StoppedLightError:
        raise StoppedLightError("the decay floor c / (1 + g_tilde^2 N_a N_b / (gamma1 gamma2)) "
                                "underflows to 0: the decay rates are too small to leave a "
                                "velocity at omega=0") from None


def mapping_coefficient(p: MediumParams, omega0: float, omega_t: float) -> float:
    """Light-to-molecule amplitude mapping coefficient k.

    The stored molecular field approximates k * E(z - travel, 0) with

        k = -(g sqrt(N_a N_b) / Omega(0))
            * sqrt((Omega(0)^2 + g_tilde^2 N_a N_b) /
                   (Omega(t)^2 + g_tilde^2 N_a N_b)),

    g being the bare coupling g_tilde / sqrt(L).  Always <= 0; for a
    photonic initial stage and full switch-off, k * sqrt(L) -> -1.
    """
    if omega0 <= 0:
        raise ValueError("undefined initial stage: omega0 must be positive")
    gc2 = p.pair_coupling_sq
    denom = omega_t**2 + gc2
    if denom == 0.0:
        raise ValueError("mapping undefined: omega_t = 0 in an uncoupled medium")
    bare_g = p.g_tilde / math.sqrt(p.L)
    return -(bare_g * math.sqrt(p.N_a * p.N_b) / omega0) * math.sqrt(
        (omega0**2 + gc2) / denom
    )


def population_split(n_total: float, eta: float = 1.0) -> tuple[float, float]:
    """(N_a, N_b) = (N/(1+eta), eta*N/(1+eta)): a total N at imbalance eta = N_b/N_a."""
    if not n_total > 0:
        raise ValueError("n_total must be positive")
    if not eta > 0:
        raise ValueError("imbalance ratio eta must be positive")
    return n_total / (1.0 + eta), eta * n_total / (1.0 + eta)


def effective_pair_density(kind: MediumKind, n_total: float, eta: float = 1.0) -> float:
    """Effective density product controlling the slowdown for each medium kind.

    Atomic ensembles slow in proportion to N, molecular media to higher
    powers of N; the heteronuclear dimer takes the imbalance eta = N_b/N_a
    into account, the trimer assumes a balanced three-way split.  A
    density that overflows a float is a ``ValueError``.
    """
    n_a, n_b = population_split(n_total, eta)
    try:
        density = (n_a * n_b if kind is MediumKind.HETERONUCLEAR_DIMER
                   else n_total**_DENSITY_EXPONENT[kind]
                   / (27.0 if kind is MediumKind.HETERONUCLEAR_TRIMER else 1.0))
    except OverflowError:
        density = math.inf
    if not density < math.inf:
        raise ValueError(f"the {kind.value} pair density of n_total = {n_total:.3g} "
                         "overflows a float")
    return density
