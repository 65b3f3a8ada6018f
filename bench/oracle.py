"""Output oracle for the benchmark, independent of the mclock library.

For the imperfect model with branch couplings g_i and initial weights
w_i = |c_i|^2 (normalized), the timing curves have the closed form

    P(t) = sum_i w_i sin^2(g_i t),    p(t) = sum_i w_i g_i sin(2 g_i t).

Every judge function returns a list of problems; an empty list means the
invocation is correct.
"""

from __future__ import annotations

import math

from workloads import couplings

CURVE_TOL = 1e-9        # absolute, on P and p
Z_LIMIT = 5.0           # |estimate - exact_P| <= Z_LIMIT * std_error
RUN_HEADER = "t,P,p"
SAMPLE_HEADER = "t,trials,case1,estimate,std_error,exact_P"


def closed_form(doc: dict, t: float) -> tuple[float, float]:
    """(P(t), p(t)) for a generated imperfect-model scenario."""
    weights = [re * re + im * im for re, im in doc["c"]]
    total = sum(weights)
    prob = rate = 0.0
    for w, g in zip(weights, couplings(doc["n"])):
        prob += w / total * math.sin(g * t) ** 2
        rate += w / total * g * math.sin(2.0 * g * t)
    return prob, rate


def _rows(text: str, header: str) -> tuple[list[list[float]], list[str]]:
    lines = text.split("\n")
    if lines[0] != header:
        return [], [f"header {lines[0]!r} != {header!r}"]
    if lines[-1] != "":
        return [], ["output does not end with a newline"]
    try:
        return [[float(x) for x in line.split(",")] for line in lines[1:-1]], []
    except ValueError as exc:
        return [], [f"unparsable row: {exc}"]


def judge_run(doc: dict, text: str) -> list[str]:
    rows, problems = _rows(text, RUN_HEADER)
    if problems:
        return problems
    grid = doc["grid"]
    if len(rows) != grid["points"]:
        return [f"{len(rows)} rows, expected {grid['points']}"]
    step = (grid["t1"] - grid["t0"]) / (grid["points"] - 1)
    for k, row in enumerate(rows):
        if len(row) != 3:
            return [f"row {k} has {len(row)} fields"]
        t, prob, rate = row
        if abs(t - (grid["t0"] + k * step)) > 1e-12 * max(1.0, abs(t)):
            return [f"row {k}: t = {t!r} is off the grid"]
        want_prob, want_rate = closed_form(doc, t)
        if not (abs(prob - want_prob) <= CURVE_TOL and abs(rate - want_rate) <= CURVE_TOL):
            return [f"row {k}: (P, p) = ({prob!r}, {rate!r}), closed form "
                    f"({want_prob!r}, {want_rate!r})"]
    return []


def judge_check(stdout: str) -> list[str]:
    if "all checks passed" not in stdout.splitlines():
        return ["check output lacks 'all checks passed'"]
    return []


def judge_sample(doc: dict, text: str, reference: str | None) -> list[str]:
    """Sampling report against the closed form and, if given, an earlier same-seed run."""
    rows, problems = _rows(text, SAMPLE_HEADER)
    if problems:
        return problems
    if len(rows) != 1 or len(rows[0]) != 6:
        return ["sampling CSV must hold exactly one row of 6 fields"]
    t, trials, case1, estimate, std_error, exact = rows[0]
    sampling = doc["sampling"]
    if t != sampling["t"] or trials != sampling["trials"]:
        return [f"t = {t!r}, trials = {trials!r} do not match the scenario"]
    if estimate != case1 / trials:
        problems.append(f"estimate {estimate!r} != case1/trials")
    want, _ = closed_form(doc, t)
    if not abs(exact - want) <= CURVE_TOL:
        problems.append(f"exact_P = {exact!r}, closed form {want!r}")
    if not abs(estimate - exact) <= Z_LIMIT * std_error:
        problems.append(f"estimate {estimate!r} is more than {Z_LIMIT} std errors "
                        f"({std_error!r}) from exact_P {exact!r}")
    if reference is not None and text != reference:
        problems.append("CSV differs from an earlier run with the same seed")
    return problems


def judge(command: str, doc: dict, returncode: int, stdout: str,
          output: str | None, reference: str | None = None) -> list[str]:
    """Problems with one CLI invocation: exit code first, then its output."""
    if returncode != 0:
        return [f"{command} exited with {returncode}, expected 0"]
    if command == "check":
        return judge_check(stdout)
    if output is None:
        return [f"{command} wrote no output file"]
    if command == "run":
        return judge_run(doc, output)
    return judge_sample(doc, output, reference)
