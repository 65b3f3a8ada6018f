"""mclock: timing statistics of quantum measurements in finite dimensions.

Builds system-apparatus measurement models, computes the probability P(t)
that the measurement has happened by time t and its density p(t) under
unitary evolution, and verifies the operational (second-apparatus)
definition by seeded Monte Carlo sampling.
"""

from .dynamics import TimeGrid, TimingTrajectory, evolve, trajectory
from .errors import (
    DimensionMismatch,
    EigensolverFailure,
    InvalidParameter,
    MClockError,
    NumericalError,
    ParseError,
    ValidationError,
)
from .hilbert import (
    HermitianOperator,
    StateVector,
    basis_state,
    expectation,
    spectral,
    tensor_state,
)
from .measurement import (
    MeasurementModel,
    SchmidtDecomposition,
    build_imperfect_model,
    build_rotation_model,
    happened_probability,
    happened_projector,
    premeasurement_check,
    rate_operator,
    schmidt_decompose,
)
from .operational import joint_distribution, sample_trials
from .scenario_io import (
    build_model,
    emit_sampling_csv,
    emit_trajectory_csv,
    initial_state,
    parse_scenario,
)
from .tolerances import TOL

__version__ = "0.1.0"

__all__ = [
    "TOL",
    "MClockError",
    "DimensionMismatch",
    "InvalidParameter",
    "NumericalError",
    "EigensolverFailure",
    "ParseError",
    "ValidationError",
    "StateVector",
    "HermitianOperator",
    "basis_state",
    "tensor_state",
    "expectation",
    "spectral",
    "TimeGrid",
    "TimingTrajectory",
    "evolve",
    "trajectory",
    "MeasurementModel",
    "SchmidtDecomposition",
    "build_rotation_model",
    "build_imperfect_model",
    "happened_projector",
    "rate_operator",
    "happened_probability",
    "premeasurement_check",
    "schmidt_decompose",
    "joint_distribution",
    "sample_trials",
    "parse_scenario",
    "emit_trajectory_csv",
    "emit_sampling_csv",
    "build_model",
    "initial_state",
    "__version__",
]
