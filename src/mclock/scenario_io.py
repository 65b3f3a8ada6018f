"""Scenario files in and result tables out.

A scenario is a strict JSON document:

    {
      "model": "rotation" | "imperfect",
      "n": <int >= 2>,
      "g": <number > 0>,
      "epsilon": <number in [0, 1)>,        // imperfect only, default 0
      "c": [[re, im], ...],                 // n initial system coefficients
      "grid": {"t0": .., "t1": .., "points": <int, default 201>},
      "sampling": {"t": .., "trials": <int>, "seed": <int>}   // optional
    }

Structural problems (bad JSON, wrong types, unknown or repeated keys) raise
ParseError; out-of-range values raise ValidationError. ``parse_scenario``
judges the resource limits, the coefficients, the grid and the sampling
block; ``build_model`` reports the model builder's judgement of n >= 2, g
and epsilon. A document with two input errors names the one judged first.
Coefficient vectors within 1e-3 of unit norm are renormalized; larger
deviations are rejected. The factor is logged at INFO when the program has
loaded ``logging``; otherwise no handler exists to show it.

Output tables are CSV with reals rendered at 17 significant digits, which
round-trips IEEE doubles bit-exactly.
"""

from __future__ import annotations

import json
import math
import sys
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import TimeGrid, TimingTrajectory
from .errors import InvalidParameter, ParseError, ValidationError
from .hilbert import ValueRecord, _freeze
from .measurement import MeasurementModel, build_imperfect_model

if TYPE_CHECKING:
    from .operational import EstimateReport

COEFF_NORM_SLACK = 1e-3

# Resource limits; a scenario beyond one is an input error, not an
# out-of-memory kill. No command builds a joint-space matrix or a dense stack
# of branch Hamiltonians: each is a 2 x 2 block. Imperfect model, 2001 points,
# fresh ``python -m mclock`` processes without cached bytecode, medians of 5
# in each of two checkouts (2-vCPU host, wall times +-30% run to run):
#     n     run           check         sample 1e5    sample 1e7
#     50    0.12 s 31 MB  0.12 s 30 MB  0.11 s 33 MB  0.22 s 33 MB
#     100   0.13 s 32 MB  0.12 s 31 MB  0.12 s 33 MB  0.30 s 33 MB
#     200   0.16 s 36 MB  0.15 s 37 MB  0.13 s 37 MB  0.63 s 37 MB
# n stops at 100, where it was set when ``sample`` at 200 took 1.2 s. At the
# grid limit ``run`` takes ~0.7-0.8 s and peaks near 70 MB (n = 2), most of
# it the grid's arrays: the CSV is written a formatting block at a time, so
# its text is never held whole. Trials are tallied in fixed-size blocks, so
# ``sample``'s peak does not grow with the trial count.
MAX_OUTCOMES = 100
MAX_GRID_POINTS = 1_000_000
MAX_TRIALS = 10_000_000

class SamplingSpec(ValueRecord):
    """The time, trial count and seed of a scenario's sampling run."""

    __slots__ = ("t", "n_trials", "seed")


class ScenarioSpec(ValueRecord):
    """A parsed, validated run configuration; ``sampling`` is a SamplingSpec or None."""

    __slots__ = ("n_outcomes", "coupling_g", "epsilon", "initial_coefficients", "grid", "sampling")


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token!r} is not allowed")


class _LongInt(ValueRecord):
    """An integer literal of ``digits`` digits, too long for int(); the field checks reject it."""

    __slots__ = ("digits",)


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _parse_int(token: str):
    try:
        return int(token)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return _LongInt(len(token.lstrip("-")))


def _as_number(value, field: str) -> float:
    if isinstance(value, _LongInt):
        raise ParseError(f"integer literal of {value.digits} digits is too long", field=field)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"expected a number, got {type(value).__name__}", field=field)
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ParseError("number must be finite", field=field)
    return out


def _as_int(value, field: str) -> int:
    if isinstance(value, _LongInt):
        raise ParseError(f"integer literal of {value.digits} digits is too long", field=field)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"expected an integer, got {type(value).__name__}", field=field)
    return value


def _as_object(
    value, field: str, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> dict:
    """``value`` as an object with no keys beyond these; the first missing required key is named."""
    if not isinstance(value, dict):
        raise ParseError(f"expected an object, got {type(value).__name__}", field=field)
    unknown = set(value).difference(required, optional)
    if unknown:
        raise ParseError(f"unknown key(s) {sorted(unknown)}", field=field)
    prefix = "" if field == "<document>" else field + "."
    for key in required:
        if key not in value:
            raise ParseError("required key missing", field=prefix + key)
    return value


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse and validate one scenario document."""
    try:
        data = json.loads(text, parse_constant=_reject_constant, parse_int=_parse_int,
                          object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc

    data = _as_object(data, "<document>", ("model", "n", "g", "c", "grid"), ("epsilon", "sampling"))
    model = data["model"]
    if not isinstance(model, str):
        raise ParseError("expected a string", field="model")
    if model not in ("rotation", "imperfect"):
        raise ValidationError(f"model must be 'rotation' or 'imperfect', got {model!r}")

    n = _as_int(data["n"], "n")
    if n > MAX_OUTCOMES:
        raise ValidationError(f"n must lie in [2, {MAX_OUTCOMES}], got {n}")

    g = _as_number(data["g"], "g")
    epsilon = _as_number(data.get("epsilon", 0.0), "epsilon")
    if model == "rotation" and epsilon != 0.0:
        raise ValidationError("the rotation model takes no epsilon")

    raw_c = data["c"]
    if not isinstance(raw_c, list):
        raise ParseError("expected an array of [re, im] pairs", field="c")
    coeffs = []
    for k, pair in enumerate(raw_c):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError("each entry must be a [re, im] pair", field=f"c[{k}]")
        re = _as_number(pair[0], f"c[{k}][0]")
        im = _as_number(pair[1], f"c[{k}][1]")
        coeffs.append(complex(re, im))
    if len(coeffs) != n:
        raise ValidationError(f"c must have n = {n} entries, got {len(coeffs)}")

    try:
        norm = math.sqrt(sum(abs(z) ** 2 for z in coeffs))
    except OverflowError:  # a square beyond the float range
        norm = math.inf
    if abs(norm - 1.0) > COEFF_NORM_SLACK:
        raise ValidationError(
            f"initial coefficients c have norm {norm:.6g}; deviations beyond "
            f"{COEFF_NORM_SLACK} signal a mistake"
        )
    if norm != 1.0:
        # Logged only if the program has loaded logging: before that no handler
        # exists to show the record, and importing logging would add ~5 ms to
        # the start-up of every command on such a scenario.
        if "logging" in sys.modules:
            sys.modules["logging"].getLogger(__name__).info(
                "renormalizing initial coefficients by factor %.17g", 1.0 / norm
            )
        coeffs = [z / norm for z in coeffs]

    grid_obj = _as_object(data["grid"], "grid", ("t0", "t1"), ("points",))
    t0 = _as_number(grid_obj["t0"], "grid.t0")
    t1 = _as_number(grid_obj["t1"], "grid.t1")
    points = _as_int(grid_obj.get("points", 201), "grid.points")
    if points > MAX_GRID_POINTS:
        raise ValidationError(f"grid.points must be <= {MAX_GRID_POINTS}, got {points}")
    try:
        grid = TimeGrid(t0, t1, points)
    except InvalidParameter as exc:
        raise ValidationError(str(exc)) from exc

    sampling = None
    if "sampling" in data:
        samp_obj = _as_object(data["sampling"], "sampling", ("t", "trials", "seed"))
        t = _as_number(samp_obj["t"], "sampling.t")
        trials = _as_int(samp_obj["trials"], "sampling.trials")
        seed = _as_int(samp_obj["seed"], "sampling.seed")
        if not 1 <= trials <= MAX_TRIALS:
            raise ValidationError(f"sampling.trials must lie in [1, {MAX_TRIALS}], got {trials}")
        if seed < 0:
            raise ValidationError(f"sampling.seed must be >= 0, got {seed}")
        sampling = SamplingSpec(t, trials, seed)

    return ScenarioSpec(n, g, epsilon, tuple(coeffs), grid, sampling)


def build_model(spec: ScenarioSpec) -> MeasurementModel:
    """Instantiate the scenario's model; a rotation model is the imperfect one at epsilon = 0.

    The builder judges n >= 2, g and epsilon; a value it refuses is a ValidationError.
    """
    try:
        return build_imperfect_model(spec.n_outcomes, spec.coupling_g, spec.epsilon)
    except InvalidParameter as exc:
        raise ValidationError(str(exc)) from exc


def initial_state(spec: ScenarioSpec, model: MeasurementModel) -> np.ndarray:
    """The branch rows of (sum_i c_i |a_i>) (x) |ready>: the read-only (n, d) array c_i |ready>.

    Row i is chi_i = (<a_i| (x) I) psi, the apparatus state on system branch
    i; the rows have the norm of c, which ``parse_scenario`` made 1, and the
    ``trajectory`` coefficient weight or ``joint_distribution`` sum checks it.
    """
    c = np.array(spec.initial_coefficients, dtype=np.complex128)
    return _freeze(np.multiply.outer(c, model.pointer_frame[:, 0]))


def emit_trajectory_csv(traj: TimingTrajectory, start: int = 0, stop: int | None = None) -> str:
    """CSV of the timing curves: header ``t,P,p``, one row per grid point.

    Each value reads as ``"%.17g" % value``. Only rows [start, stop), read
    as a slice, are written: the header when start is 0, the closing newline
    when stop reaches the last point.
    """
    # Imported here, on the one command that writes a trajectory: check and
    # sample then do not compile it.
    from .csv17 import format_csv

    n = traj.grid.n_points
    start, stop, _ = slice(start, stop).indices(n)
    columns = (traj.grid.times_slice(start, stop), traj.prob_happened[start:stop],
               traj.rate[start:stop])
    return format_csv("t,P,p" if start == 0 else "", columns, "\n" if stop == n else "")


def trajectory_csv_pieces(traj: TimingTrajectory):
    """``emit_trajectory_csv(traj)`` as one piece per formatting block, made as it is read."""
    from .csv17 import block_rows

    rows = block_rows(3)
    for start in range(0, traj.grid.n_points, rows):
        # Through the module global, so a wrapper bound in its place sees each block.
        yield emit_trajectory_csv(traj, start, start + rows)


def emit_sampling_csv(report: EstimateReport) -> str:
    """One-row CSV of a sampling run: ``t,trials,case1,estimate,std_error,exact_P``."""
    row = "%.17g,%d,%d,%.17g,%.17g,%.17g\n" % (
        report.t, report.n_trials, report.case1_count,
        report.estimate, report.std_error, report.exact_prob,
    )
    return "t,trials,case1,estimate,std_error,exact_P\n" + row
