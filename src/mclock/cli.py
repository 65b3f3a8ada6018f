"""Command-line front end: compute timing curves, sample trials, check a model.

Subcommands map onto the three activities the library supports:

    mclock run    <scenario.json> --out <traj.csv>     # P(t), p(t) curves
    mclock sample <scenario.json> --out <report.csv>   # Monte Carlo estimate
    mclock check  <scenario.json>                      # model diagnostics

Exit codes are a stable contract: 0 success, 2 input problem (file,
parse, validation), 3 numerical failure, 4 a check failed. Summary text
goes to stdout; data goes to files only, written atomically.

The environment variable MCLOCK_TOL_SCALE (float, default 1) uniformly
scales the check tolerances (the ``*_check`` fields of TOL) for
exploratory use; leave it unset for acceptance runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import numpy as np

from .dynamics import trajectory
from .errors import MClockError, ParseError, ValidationError
from .measurement import happened_projector, premeasurement_check
from .operational import sample_trials
from .scenario_io import (
    ScenarioSpec,
    build_model,
    emit_sampling_csv,
    emit_trajectory_csv,
    initial_state,
    parse_scenario,
)
from .tolerances import TOL

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mclock-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_scenario(path: str) -> ScenarioSpec:
    with open(path, encoding="utf-8") as handle:
        return parse_scenario(handle.read())


def _prepare(spec: ScenarioSpec):
    model = build_model(spec)
    return model, initial_state(spec, model)


def cmd_run(spec: ScenarioSpec, out_path: str) -> int:
    model, psi0 = _prepare(spec)
    traj = trajectory(model, psi0, spec.grid)
    _atomic_write(out_path, emit_trajectory_csv(traj))

    times = traj.grid.times
    peak = int(np.argmax(traj.rate))
    print(f"nominal duration T = {model.nominal_duration:.12g}")
    print(f"P({times[-1]:.12g}) = {traj.prob_happened[-1]:.12g}")
    print(f"peak rate p = {traj.rate[peak]:.12g} at t = {times[peak]:.12g}")
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_sample(spec: ScenarioSpec, out_path: str) -> int:
    if spec.sampling is None:
        print("error: scenario has no sampling block", file=sys.stderr)
        return EXIT_INPUT
    model, psi0 = _prepare(spec)
    sampling = spec.sampling
    _, report = sample_trials(model, psi0, sampling.t, sampling.n_trials, sampling.seed)
    _atomic_write(out_path, emit_sampling_csv(report))
    print(
        f"estimate = {report.estimate:.6g} +/- {report.std_error:.3g} "
        f"(exact P = {report.exact_prob:.12g}, {report.n_trials} trials, "
        f"rng {report.rng_algorithm})"
    )
    print(f"wrote {out_path}")
    return EXIT_OK


def _run_checks(spec: ScenarioSpec, scale: float, model, psi0):
    """Yield (name, passed, detail) for each check of ``_prepare``'s output, in order."""
    report = premeasurement_check(model)
    threshold = model.fidelity - TOL.premeasurement_check * scale
    yield (
        "premeasurement",
        report.qualifies(threshold),
        f"min fidelity {min(report.fidelities):.12g}, declared {model.fidelity:.12g}",
    )

    m = happened_projector(model).matrix
    tol = TOL.projector_check * scale
    idem = float(np.max(np.abs(m @ m - m)))
    yield ("projector idempotence", idem < tol, f"max |M^2 - M| = {idem:.3e} (tol {tol:.3e})")
    herm = float(np.max(np.abs(m - m.conj().T)))
    yield ("projector hermiticity", herm < tol, f"max |M - M^H| = {herm:.3e} (tol {tol:.3e})")

    traj = trajectory(model, psi0, spec.grid)
    step = spec.grid.step
    # Central-difference truncation grows like |P'''| h^2 / 6 <= (2/3) g^3 h^2
    # for these models, so the tolerance widens on coarse grids. Products, not
    # powers: a float power that overflows raises, a product gives inf.
    g = spec.coupling_g
    widening = g * g * g * step * step
    fd_tol = max(TOL.derivative_check, widening) * scale
    diffs = (traj.prob_happened[2:] - traj.prob_happened[:-2]) / (2.0 * step)
    err = float(np.max(np.abs(diffs - traj.rate[1:-1])))
    detail = f"max |dP/dt - p| = {err:.3e} (tol {fd_tol:.3e})"
    if widening > TOL.derivative_check:
        detail += f"; tolerance widened for coarse step h = {step:.3g}"
    yield ("derivative identity", err < fd_tol, detail)


def cmd_check(spec: ScenarioSpec, scale: float) -> int:
    if spec.grid.n_points < 3:
        raise ValidationError(
            f"grid.points must be >= 3 for check's derivative identity, got {spec.grid.n_points}"
        )
    for name, passed, detail in _run_checks(spec, scale, *_prepare(spec)):
        if not passed:
            print(f"check {name}: FAILED ({detail})", file=sys.stderr)
            return EXIT_CHECK_FAILED
        print(f"check {name}: ok ({detail})")
    print("all checks passed")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mclock",
        description="Timing statistics of quantum measurements in system-apparatus models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="compute P(t), p(t) and write a trajectory CSV")
    run_p.add_argument("scenario", help="scenario JSON file")
    run_p.add_argument("--out", required=True, help="output CSV path")

    sample_p = sub.add_parser("sample", help="Monte Carlo trial sampling at one time")
    sample_p.add_argument("scenario", help="scenario JSON file (must contain 'sampling')")
    sample_p.add_argument("--out", required=True, help="output CSV path")

    check_p = sub.add_parser("check", help="validate the scenario's model")
    check_p.add_argument("scenario", help="scenario JSON file")

    args = parser.parse_args(argv)

    raw_scale = os.environ.get("MCLOCK_TOL_SCALE", "1")
    try:
        scale = float(raw_scale)
        if not scale > 0:
            raise ValueError
    except ValueError:
        print(f"error: MCLOCK_TOL_SCALE must be a positive float, got {raw_scale!r}",
              file=sys.stderr)
        return EXIT_INPUT

    try:
        spec = _load_scenario(args.scenario)
        if args.command == "run":
            return cmd_run(spec, args.out)
        if args.command == "sample":
            return cmd_sample(spec, args.out)
        return cmd_check(spec, scale)
    except (ParseError, ValidationError) as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MClockError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
