"""Control-field schedules Omega(t) for slowdown, storage and retrieval."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TanhRamp:
    """Smooth plateau -> off -> plateau ramp.

    Omega(t) = omega0 * (1 - 0.5*tanh[rate*(t - t_down)]
                           + 0.5*tanh[rate*(t - t_up)])
    """

    omega0: float    # plateau amplitude, rad/us
    t_down: float    # center of the switch-off ramp, us
    t_up: float      # center of the switch-on ramp, us
    rate: float      # ramp steepness, 1/us

    def __post_init__(self):
        if not self.omega0 >= 0:
            raise ValueError("omega0 must be nonnegative")
        if not math.isfinite(self.omega0 * self.omega0):
            raise ValueError("omega0 squared overflows a float")
        if not self.rate > 0:
            raise ValueError("rate must be positive")
        if not self.t_down < self.t_up:
            raise ValueError("t_down must precede t_up")

    def omega(self, t):
        t = np.asarray(t, dtype=float)
        val = self.omega0 * (
            1.0
            - 0.5 * np.tanh(self.rate * (t - self.t_down))
            + 0.5 * np.tanh(self.rate * (t - self.t_up))
        )
        return val if val.ndim else float(val)


@dataclass(frozen=True)
class Tabulated:
    """Piecewise-linear schedule through (times, values) samples."""

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

    def omega(self, t):
        t = np.asarray(t, dtype=float)
        val = np.interp(t, self.times, self.values)
        return val if val.ndim else float(val)


@dataclass(frozen=True)
class ControlSchedule:
    """Classical coupling field Omega(t), closed-form ramp or tabulated."""

    form: TanhRamp | Tabulated

    def omega(self, t):
        return self.form.omega(t)

    @property
    def plateau(self) -> float:
        """Nominal full-on amplitude used for feasibility estimates."""
        if isinstance(self.form, TanhRamp):
            return self.form.omega0
        return float(max(self.form.values))

    @classmethod
    def tanh_ramp(cls, omega0: float, t_down: float, t_up: float, rate: float) -> "ControlSchedule":
        return cls(TanhRamp(omega0=omega0, t_down=t_down, t_up=t_up, rate=rate))

    @classmethod
    def tabulated(cls, times, values) -> "ControlSchedule":
        return cls(Tabulated(times=tuple(float(x) for x in times),
                             values=tuple(float(x) for x in values)))


def standard_storage_schedule() -> ControlSchedule:
    """Reference storage/retrieval ramp: 10*pi rad/us plateau, switch-off
    centered at 15 us, switch-on at 125 us, steepness 0.15/us."""
    return ControlSchedule.tanh_ramp(
        omega0=10.0 * math.pi, t_down=15.0, t_up=125.0, rate=0.15
    )
