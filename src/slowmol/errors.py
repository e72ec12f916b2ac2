"""Exception types shared across modules and mapped to CLI exit codes."""


class ConfigError(ValueError):
    """Invalid configuration document or parameter set (CLI exit code 2)."""


class NumericsError(RuntimeError):
    """Numerical failure inside a solver (CLI exit code 3).

    Carries the simulation time and grid index of the first offending
    sample when known.
    """

    def __init__(self, message: str, t: float | None = None, index: int | None = None):
        if t is not None:
            message = f"{message} at t={t:.6g}"
        if index is not None:
            message = f"{message}, grid index {index}"
        super().__init__(message)
        self.t = t
        self.index = index


class FeasibilityRefused(RuntimeError):
    """Experiment gate declined to run (CLI exit code 4); use force to override.
    Its one argument is the ``protocol.FeasibilityReport`` of the refused margins."""


class StoppedLightError(ValueError):
    """Group velocity is exactly zero: control field off and no decay floor."""


class SupersonicError(ValueError):
    """Requested soliton speed exceeds the sound speed: no soliton exists."""


class AliasingWarning(UserWarning):
    """Spectral tail of a wavefunction carries non-negligible power."""
