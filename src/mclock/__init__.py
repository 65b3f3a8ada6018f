"""mclock: timing statistics of quantum measurements in finite dimensions.

Builds system-apparatus measurement models, computes the probability P(t)
that the measurement has happened by time t and its density p(t) under
unitary evolution, and verifies the operational (second-apparatus)
definition by seeded Monte Carlo sampling.

The public names load their submodule, and numpy with it, on first use, so
``python -m mclock`` reaches ``cli`` before numpy is loaded.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "tolerances": ("TOL",),
        "errors": (
            "MClockError", "DimensionMismatch", "InvalidParameter", "NumericalError",
            "EigensolverFailure", "ParseError", "ValidationError",
        ),
        "hilbert": ("StateVector", "HermitianOperator", "expectation", "spectral"),
        "dynamics": ("TimeGrid", "TimingTrajectory", "evolve", "trajectory"),
        "measurement": (
            "MeasurementModel", "build_rotation_model", "build_imperfect_model",
            "happened_projector", "rate_operator", "premeasurement_check",
        ),
        "schmidt": ("SchmidtDecomposition", "schmidt_decompose"),
        "operational": ("joint_distribution", "sample_trials"),
        "scenario_io": (
            "parse_scenario", "emit_trajectory_csv", "emit_sampling_csv", "build_model",
            "initial_state",
        ),
    }.items()
    for name in names
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
