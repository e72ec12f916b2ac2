"""Control-field schedules Omega(t) for slowdown, storage and retrieval."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ControlSchedule:
    """Classical coupling field Omega(t), a ``TanhRamp`` or a ``Tabulated``.
    Each form supplies its ``_formula``, its ``plateau`` (the nominal full-on
    amplitude of feasibility estimates) and its knots, the ``times`` and
    ``values`` where a piecewise-linear Omega bends and may peak."""

    def omega(self, t):
        """Omega at ``t``: a float for a scalar, else a float64 array."""
        val = self._formula(np.asarray(t, dtype=float))
        return val if val.ndim else float(val)

    @staticmethod
    def tanh_ramp(omega0: float, t_down: float, t_up: float, rate: float) -> "TanhRamp":
        return TanhRamp(omega0=omega0, t_down=t_down, t_up=t_up, rate=rate)

    @staticmethod
    def tabulated(times, values) -> "Tabulated":
        return Tabulated(times=tuple(float(x) for x in times),
                         values=tuple(float(x) for x in values))


@dataclass(frozen=True)
class TanhRamp(ControlSchedule):
    """Smooth plateau -> off -> plateau ramp.

    Omega(t) = omega0 * (1 - 0.5*tanh[rate*(t - t_down)]
                           + 0.5*tanh[rate*(t - t_up)])
    """

    omega0: float    # plateau amplitude, rad/us
    t_down: float    # center of the switch-off ramp, us
    t_up: float      # center of the switch-on ramp, us
    rate: float      # ramp steepness, 1/us
    times = values = ()  # no knots: a smooth ramp

    def __post_init__(self):
        if not self.omega0 >= 0:
            raise ValueError("omega0 must be nonnegative")
        if not math.isfinite(self.omega0 * self.omega0):
            raise ValueError("omega0 squared overflows a float")
        if not self.rate > 0:
            raise ValueError("rate must be positive")
        if not self.t_down < self.t_up:
            raise ValueError("t_down must precede t_up")

    @property
    def plateau(self) -> float:
        return self.omega0

    def _formula(self, t: np.ndarray) -> np.ndarray:
        return self.omega0 * (
            1.0
            - 0.5 * np.tanh(self.rate * (t - self.t_down))
            + 0.5 * np.tanh(self.rate * (t - self.t_up))
        )


@dataclass(frozen=True)
class Tabulated(ControlSchedule):
    """Piecewise-linear schedule through (times, values) samples, its knots."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.values) or len(self.times) < 2:
            raise ValueError("need at least two (time, value) samples")
        # plain Python: a table has a few knots, and validate builds it per document
        if not all(a < b for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must be strictly increasing")
        if not all(v >= 0 for v in self.values):
            raise ValueError("control amplitudes must be nonnegative")
        top = float(max(self.values))
        if not math.isfinite(top * top):
            raise ValueError("control amplitudes squared overflow a float")

    @property
    def plateau(self) -> float:
        return float(max(self.values))

    def _formula(self, t: np.ndarray) -> np.ndarray:
        return np.interp(t, self.times, self.values)


def standard_storage_schedule() -> ControlSchedule:
    """Reference storage/retrieval ramp: 10*pi rad/us plateau, switch-off
    centered at 15 us, switch-on at 125 us, steepness 0.15/us."""
    return ControlSchedule.tanh_ramp(
        omega0=10.0 * math.pi, t_down=15.0, t_up=125.0, rate=0.15
    )
