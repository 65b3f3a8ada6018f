"""Command-line front end: compute timing curves, sample trials, check a model.

Subcommands map onto the three activities the library supports:

    mclock run    <scenario.json> --out <traj.csv>     # P(t), p(t) curves
    mclock sample <scenario.json> --out <report.csv>   # Monte Carlo estimate
    mclock check  <scenario.json>                      # model diagnostics

Exit codes are a stable contract: 0 success, 2 input problem (file,
parse, validation), 3 numerical failure, 4 a check failed. Summary text
goes to stdout; data goes to files only, written atomically. The
computing lives in the library (``check``'s numbers and verdicts in
``mclock.checks``); this module parses, writes files and words results.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import tempfile

# One OpenBLAS thread for the CLI's own process, set before numpy loads. Each
# BLAS call here works on a stack of 2 x 2 branch blocks, too little work for
# a second thread; yet OpenBLAS starts one, and while idle it spins on
# sched_yield, on a shared CPU slowing the main thread. A value the user set
# wins; MKL and Accelerate ignore the variable.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .dynamics import trajectory
from .errors import MClockError, ParseError, ValidationError
from .scenario_io import (
    ScenarioSpec,
    build_model,
    emit_sampling_csv,
    initial_state,
    parse_scenario,
    trajectory_csv_pieces,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4

# How ``check`` words each part of a check's record: kind -> clause.
_CLAUSES = {
    "fidelity": "min fidelity {:.12g}, declared {:.12g}",
    "gram": "max |G - I| = {:.3e} (tol {:.3e})",
    "derivative": "max |dP/dt - p| = {:.3e} (tol {:.3e})",
    "widened": "tolerance widened for coarse step h = {:.3g}",
    "phases": "phases unresolved: max|lambda| max|t| 2^-52 = {:.3e}",
    "coarse": "untested: any curve is within {:.3e}, the step is too coarse to test the identity",
    "small": "untested: any curve is within {:.3e}, the curves are too small to test the identity",
    "coincide": "untested: stored times t[{}] = t[{}] = {:.17g} coincide",
}


def _atomic_write(path: str, pieces) -> None:
    # The str pieces are written in turn, so a source that makes each as it
    # is drawn never holds the whole text. Leave the mode open(path, "w")
    # would: an existing file keeps its own, a new one gets 0o666 less the
    # umask (mkstemp alone would give 0o600).
    try:
        st_mode = os.stat(path).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        if not stat.S_ISREG(st_mode):
            # A FIFO, pipe or device is written in place, as open(path, "w")
            # and a loop over the pieces would, formatting each while the
            # node is being written; a rename would swap the node itself for
            # a regular file. The path is opened as given: /dev/stdout or
            # /dev/fd/N onto a pipe resolve to no name that can be opened. A
            # directory fails here, naming the path.
            with open(path, "w") as handle:
                handle.writelines(pieces)
            return
        mode = stat.S_IMODE(st_mode)
    # Write where open(path, "w") would: through a symlink, to its target.
    target = os.path.realpath(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".mclock-", suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            os.fchmod(handle.fileno(), mode)
            handle.writelines(pieces)
        os.replace(tmp, target)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # name the path as given, not the temp file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _load_scenario(path: str) -> ScenarioSpec:
    with open(path, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc.reason} at byte {exc.start}") from exc
    return parse_scenario(text)


def _prepare(spec: ScenarioSpec):
    model = build_model(spec)
    return model, initial_state(spec, model)


def cmd_run(spec: ScenarioSpec, out_path: str) -> int:
    model, branches = _prepare(spec)
    traj = trajectory(model, branches, spec.grid)
    _atomic_write(out_path, trajectory_csv_pieces(traj))

    grid = traj.grid
    peak = int(np.argmax(traj.rate))
    t_end, t_peak = (grid.times_slice(k, k + 1)[0] for k in (grid.n_points - 1, peak))
    print(f"nominal duration T = {model.nominal_duration:.12g}")
    print(f"P({t_end:.12g}) = {traj.prob_happened[-1]:.12g}")
    print(f"peak rate p = {traj.rate[peak]:.12g} at t = {t_peak:.12g}")
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_sample(spec: ScenarioSpec, out_path: str) -> int:
    if spec.sampling is None:
        raise ValidationError("scenario has no sampling block")
    # Imported here, on the one command that samples: run and check then
    # neither compile nor build it.
    from .operational import RNG_ALGORITHM, sample_trials

    model, branches = _prepare(spec)
    sampling = spec.sampling
    _, report = sample_trials(model, branches, sampling.t, sampling.n_trials, sampling.seed)
    _atomic_write(out_path, (emit_sampling_csv(report),))
    print(
        f"estimate = {report.estimate:.6g} +/- {report.std_error:.3g} "
        f"(exact P = {report.exact_prob:.12g}, {report.n_trials} trials, "
        f"rng {RNG_ALGORITHM})"
    )
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_check(spec: ScenarioSpec) -> int:
    if spec.grid.n_points < 3:
        raise ValidationError(
            f"grid.points must be >= 3 for check's derivative identity, got {spec.grid.n_points}"
        )
    # Imported here, on the one command that checks: run and sample then
    # neither compile nor build it.
    from .checks import run_checks

    for name, passed, parts in run_checks(spec, *_prepare(spec)):
        detail = "; ".join(_CLAUSES[kind].format(*numbers) for kind, *numbers in parts)
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

    try:
        spec = _load_scenario(args.scenario)
        if args.command == "run":
            return cmd_run(spec, args.out)
        if args.command == "sample":
            return cmd_sample(spec, args.out)
        return cmd_check(spec)
    except (ParseError, ValidationError) as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MClockError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
