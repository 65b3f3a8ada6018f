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
    NonOrthonormalInput,
    NumericalError,
    ParseError,
    ValidationError,
)
from .hilbert import (
    HermitianOperator,
    SpectralDecomposition,
    StateVector,
    basis_state,
    commutator,
    expectation,
    identity_operator,
    projector_onto,
    spectral,
    tensor_operator,
    tensor_state,
)
from .measurement import (
    MeasurementModel,
    PremeasurementReport,
    SchmidtDecomposition,
    build_imperfect_model,
    build_rotation_model,
    happened_probability,
    happened_projector,
    premeasurement_check,
    rate_operator,
    schmidt_decompose,
)
from .operational import (
    RNG_ALGORITHM,
    EstimateReport,
    JointOutcome,
    JointOutcomeDistribution,
    joint_distribution,
    sample_trials,
)
from .scenario_io import (
    SamplingSpec,
    ScenarioSpec,
    build_model,
    emit_sampling_csv,
    emit_trajectory_csv,
    initial_state,
    parse_scenario,
    serialize_scenario,
)
from .tolerances import TOL, Tolerances

__version__ = "0.1.0"

__all__ = [
    "TOL",
    "Tolerances",
    "MClockError",
    "DimensionMismatch",
    "NonOrthonormalInput",
    "InvalidParameter",
    "NumericalError",
    "EigensolverFailure",
    "ParseError",
    "ValidationError",
    "StateVector",
    "HermitianOperator",
    "SpectralDecomposition",
    "basis_state",
    "identity_operator",
    "tensor_state",
    "tensor_operator",
    "projector_onto",
    "expectation",
    "commutator",
    "spectral",
    "TimeGrid",
    "TimingTrajectory",
    "evolve",
    "trajectory",
    "MeasurementModel",
    "PremeasurementReport",
    "SchmidtDecomposition",
    "build_rotation_model",
    "build_imperfect_model",
    "happened_projector",
    "rate_operator",
    "happened_probability",
    "premeasurement_check",
    "schmidt_decompose",
    "RNG_ALGORITHM",
    "JointOutcome",
    "JointOutcomeDistribution",
    "EstimateReport",
    "joint_distribution",
    "sample_trials",
    "ScenarioSpec",
    "SamplingSpec",
    "parse_scenario",
    "serialize_scenario",
    "emit_trajectory_csv",
    "emit_sampling_csv",
    "build_model",
    "initial_state",
    "__version__",
]
