"""Byte-for-byte regression of the CLI's outputs on the bundled scenarios.

The files in ``tests/golden/`` hold the ``run`` CSVs of the bundled
scenarios, the ``sample`` CSV of ``scenarios/sampling.json`` and the
standard output of ``check`` on each bundled scenario. A change that is
meant to keep every output reruns the command here and must reproduce the
file exactly. A change that alters an output on purpose regenerates the
file, e.g. ``mclock run scenarios/rotation.json --out
tests/golden/rotation.run.csv``, and says why. The bits come from numpy's
BLAS, so another BLAS build may differ in the last digits.
"""

from pathlib import Path

import pytest

import mclock.cli as cli

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = REPO_ROOT / "tests" / "golden"
BUNDLED = ("rotation", "imperfect", "sampling")

CASES = (
    [("run", name) for name in BUNDLED]
    + [("sample", "sampling")]
    + [("check", name) for name in BUNDLED]
)


@pytest.mark.parametrize("command, name", CASES, ids=[f"{c}-{n}" for c, n in CASES])
def test_output_matches_golden(command, name, tmp_path, capsys):
    scenario = str(REPO_ROOT / "scenarios" / f"{name}.json")
    if command == "check":
        assert cli.main(["check", scenario]) == 0
        produced = capsys.readouterr().out.encode()
        expected = (GOLDEN / f"{name}.check.txt").read_bytes()
    else:
        out = tmp_path / "out.csv"
        assert cli.main([command, scenario, "--out", str(out)]) == 0
        produced = out.read_bytes()
        expected = (GOLDEN / f"{name}.{command}.csv").read_bytes()
    assert produced == expected
