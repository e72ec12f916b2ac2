"""Slow light, optical storage and gray solitons in an atom-molecule
photoassociation medium."""

from time import perf_counter as _perf_counter

_IMPORT_START = _perf_counter()  # read by ``slowmol <experiment> --timings``

from .errors import (
    AliasingWarning,
    ConfigError,
    FeasibilityRefused,
    NumericsError,
    StoppedLightError,
    SupersonicError,
)
from .medium import (
    MediumKind,
    MediumParams,
    MixingState,
    effective_pair_density,
    group_velocity,
    group_velocity_with_decay,
    mapping_coefficient,
    mixing_angle,
    mixing_state,
    slowdown,
    velocity_floor,
)
from .schedule import ControlSchedule, TanhRamp, Tabulated, standard_storage_schedule
from .dynamics import (
    GaussianPulse,
    Grid1D,
    MeanFieldState,
    SignalEnvelope,
    conserved_charges,
    integrate_mean_field,
    pulse_center,
    storage_fidelity,
    wea_propagate,
)
from .gpe import (
    DipTrajectory,
    GpeParams,
    SolitonSpec,
    SplitResult,
    WaveFunction,
    background_phase,
    effective_potential,
    energy_functional,
    grayness,
    healing_alpha,
    soliton_product,
    soliton_split_experiment,
    sound_speed,
    split_step_evolve,
    track_minima,
    u_gg_from_scattering_length,
    v_ext_for_zero_effective,
)
from .protocol import (
    FeasibilityReport,
    StorageResult,
    feasibility_check,
    imbalance_sweep,
    medium_comparison,
    run_storage_retrieval,
    scaling_exponent,
    storage_span,
    velocity_curve,
)
from .reports import ExperimentReport

__version__ = "0.1.0"
