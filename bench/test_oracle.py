"""Tests of the benchmark's output oracle.

    python3 -m pytest bench/test_oracle.py

The oracle must accept what mclock really writes and count a perturbed
CSV and a wrong exit code as failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

import oracle
from workloads import Workload, scenario

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))
cli = pytest.importorskip("mclock.cli")

SMALL = Workload("small", n=3, points=101, trials=20_000)


@pytest.fixture
def case(tmp_path):
    doc = scenario(SMALL, seed=7)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    outputs = {}
    for command in ("run", "check", "sample"):
        out = None if command == "check" else str(tmp_path / f"{command}.csv")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([command, str(path)] + ([] if out is None else ["--out", out]))
        assert code == 0
        outputs[command] = (stdout.getvalue(), None if out is None else open(out).read())
    return doc, outputs


def test_accepts_real_outputs(case):
    doc, outputs = case
    for command, (stdout, text) in outputs.items():
        assert oracle.judge(command, doc, 0, stdout, text, reference=text) == []


def test_perturbed_run_csv_fails(case):
    doc, outputs = case
    lines = outputs["run"][1].split("\n")
    t, prob, rate = lines[50].split(",")
    lines[50] = f"{t},{float(prob) + 1e-8!r},{rate}"
    assert oracle.judge("run", doc, 0, "", "\n".join(lines))


def test_wrong_exit_code_fails(case):
    doc, outputs = case
    for command, (stdout, text) in outputs.items():
        assert oracle.judge(command, doc, 3, stdout, text)


def test_sampling_checks(case):
    doc, outputs = case
    text = outputs["sample"][1]
    header, row = text.split("\n")[:2]
    t, trials, case1, estimate, std_error, exact = row.split(",")

    def with_row(*fields):
        return f"{header}\n{','.join(fields)}\n"

    wrong_exact = with_row(t, trials, case1, estimate, std_error, repr(float(exact) + 1e-6))
    assert oracle.judge_sample(doc, wrong_exact, None)
    far = int(trials) * (float(exact) + 6 * float(std_error))
    off = with_row(t, trials, str(int(far)), repr(int(far) / int(trials)), std_error, exact)
    assert oracle.judge_sample(doc, off, None)
    assert oracle.judge_sample(doc, text, reference=text + "\n")
    assert oracle.judge("check", doc, 0, "check premeasurement: ok\n", None)
