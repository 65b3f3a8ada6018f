import contextlib
import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mclock.cli as cli
from mclock import NumericalError
from mclock.scenario_io import MAX_GRID_POINTS, MAX_OUTCOMES, MAX_TRIALS

REPO_ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = REPO_ROOT / "scenarios"


@pytest.fixture(autouse=True)
def clean_tol_scale(monkeypatch):
    monkeypatch.delenv("MCLOCK_TOL_SCALE", raising=False)


def write_scenario(path: Path, **overrides) -> Path:
    doc = {
        "model": "rotation",
        "n": 2,
        "g": 1.0,
        "c": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
        "grid": {"t0": 0.0, "t1": 1.5707963267948966, "points": 101},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


class TestRun:
    def test_rotation_summary_and_csv(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.json")
        out = tmp_path / "traj.csv"
        assert cli.main(["run", str(scenario), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "nominal duration T = 1.57079632679" in captured
        assert "peak rate" in captured
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,P,p"
        assert len(lines) == 102
        last = [float(x) for x in lines[-1].split(",")]
        assert abs(last[1] - 1.0) < 1e-10

    def test_peak_at_quarter_period(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.json")
        out = tmp_path / "traj.csv"
        cli.main(["run", str(scenario), "--out", str(out)])
        summary = capsys.readouterr().out
        peak_t = float(summary.split("at t = ")[1].split()[0])
        step = (math.pi / 2) / 100
        assert abs(peak_t - math.pi / 4) <= step

    def test_imperfect_final_probability_below_one(self, tmp_path):
        scenario = write_scenario(tmp_path / "s.json", model="imperfect", epsilon=0.1)
        out = tmp_path / "traj.csv"
        assert cli.main(["run", str(scenario), "--out", str(out)]) == 0
        last = out.read_text().strip().split("\n")[-1].split(",")
        assert float(last[1]) < 0.99

    def test_missing_file_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert cli.main(["run", str(missing), "--out", str(tmp_path / "x.csv")]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_invalid_scenario(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["run", str(bad), "--out", str(tmp_path / "x.csv")]) == 2

    def test_validation_failure(self, tmp_path):
        scenario = write_scenario(tmp_path / "s.json", g=0.0)
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "x.csv")]) == 2

    def test_unwritable_output_directory(self, tmp_path):
        scenario = write_scenario(tmp_path / "s.json")
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert cli.main(["run", str(scenario), "--out", str(out)]) == 2

    def test_numerical_failure_maps_to_exit_3(self, tmp_path, monkeypatch):
        scenario = write_scenario(tmp_path / "s.json")

        def boom(*args, **kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "trajectory", boom)
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "x.csv")]) == 3


class TestSample:
    def test_report_and_determinism(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path / "s.json",
            sampling={"t": 0.7853981633974483, "trials": 2000, "seed": 99},
        )
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        assert cli.main(["sample", str(scenario), "--out", str(out1)]) == 0
        assert "estimate" in capsys.readouterr().out
        assert cli.main(["sample", str(scenario), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().split("\n")[0]
        assert header == "t,trials,case1,estimate,std_error,exact_P"

    def test_missing_sampling_block(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.json")
        assert cli.main(["sample", str(scenario), "--out", str(tmp_path / "r.csv")]) == 2
        assert "sampling" in capsys.readouterr().err


class TestCheck:
    def test_bundled_scenarios_pass(self, capsys):
        for name in ("rotation.json", "imperfect.json", "sampling.json"):
            assert cli.main(["check", str(SCENARIOS / name)]) == 0
            assert "all checks passed" in capsys.readouterr().out

    def test_coarse_grid_widens_derivative_tolerance(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path / "s.json", grid={"t0": 0.0, "t1": 1.5707963267948966, "points": 3}
        )
        assert cli.main(["check", str(scenario)]) == 0
        assert "tolerance widened" in capsys.readouterr().out

    def test_shrunk_tolerances_fail_first_check(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MCLOCK_TOL_SCALE", "1e-12")
        scenario = write_scenario(tmp_path / "s.json")
        assert cli.main(["check", str(scenario)]) == 4
        err = capsys.readouterr().err
        assert "FAILED" in err and "premeasurement" in err

    def test_invalid_tol_scale(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MCLOCK_TOL_SCALE", "banana")
        scenario = write_scenario(tmp_path / "s.json")
        assert cli.main(["check", str(scenario)]) == 2
        assert "MCLOCK_TOL_SCALE" in capsys.readouterr().err

    def test_corrupted_model_fails_premeasurement(self, tmp_path):
        # A dead interaction (all couplings effectively zero) cannot
        # premeasure; the check harness reports it as the first failure.
        import dataclasses

        import numpy as np

        from mclock import HermitianOperator, build_rotation_model, initial_state, parse_scenario

        spec = parse_scenario(write_scenario(tmp_path / "s.json").read_text())
        model = build_rotation_model(2, 1.0)
        zero = HermitianOperator((model.apparatus_dim,), np.zeros((3, 3)))
        dead = dataclasses.replace(model, branch_hamiltonians=(zero, zero))
        results = list(cli._run_checks(spec, 1.0, dead, initial_state(spec, dead)))
        assert results[0][0] == "premeasurement"
        assert results[0][1] is False

    def test_two_point_grid_is_an_input_error(self, tmp_path, capsys):
        # run and sample accept two points; check needs an interior point.
        scenario = write_scenario(
            tmp_path / "s.json", grid={"t0": 0.0, "t1": 1.5707963267948966, "points": 2},
            sampling={"t": 0.5, "trials": 10, "seed": 1},
        )
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "t.csv")]) == 0
        assert cli.main(["sample", str(scenario), "--out", str(tmp_path / "r.csv")]) == 0
        capsys.readouterr()
        assert cli.main(["check", str(scenario)]) == 2
        assert "grid.points" in capsys.readouterr().err

    def test_coarse_step_beyond_float_range(self, tmp_path):
        # h^2 exceeds the float range, so the tolerance widening g^3 h^2 is inf.
        scenario = write_scenario(
            tmp_path / "s.json", grid={"t0": -4.3e155, "t1": 1.5707963267948966, "points": 33}
        )
        assert cli.main(["check", str(scenario)]) in (0, 2, 3, 4)

    def test_large_coupling_passes(self, tmp_path, capsys):
        # At g = 1e6 the spectral residual is ~1e-10 in absolute terms, well
        # within the tolerance relative to the size of H.
        doc = json.loads((SCENARIOS / "imperfect.json").read_text())
        doc["g"] = 1e6
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(doc))
        assert cli.main(["check", str(scenario)]) == 0
        assert "all checks passed" in capsys.readouterr().out


class TestInputErrors:
    def test_negative_seed(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path / "s.json", sampling={"t": 0.5, "trials": 10, "seed": -1}
        )
        assert cli.main(["sample", str(scenario), "--out", str(tmp_path / "r.csv")]) == 2
        assert "sampling.seed" in capsys.readouterr().err

    def test_overflowing_coefficient(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.json", c=[[1e308, 0.0], [0.0, 0.0]])
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "t.csv")]) == 2
        assert "coefficients c" in capsys.readouterr().err

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.json", g=10**400)
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "t.csv")]) == 2
        assert "field 'g'" in capsys.readouterr().err

    def test_integer_literal_beyond_digit_limit(self, tmp_path, capsys):
        # json.dumps cannot render it either, so the literal is spliced in.
        scenario = write_scenario(tmp_path / "s.json", g=123456789)
        scenario.write_text(scenario.read_text().replace("123456789", "1" + "0" * 5000))
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "t.csv")]) == 2
        assert "field 'g'" in capsys.readouterr().err

    def test_coupling_with_infinite_duration(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.json", g=5e-324)
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "t.csv")]) == 2
        assert "g = 5e-324" in capsys.readouterr().err

    def test_grid_span_beyond_float_range(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path / "s.json", grid={"t0": -1e308, "t1": 1e308})
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / "t.csv")]) == 2
        assert cli.main(["check", str(scenario)]) == 2
        assert "grid span inf" in capsys.readouterr().err


# Numbers, weighted towards the edges of the float range and integers far
# beyond it, so that many mutated documents still reach the numerics.
NUMBERS = (
    st.floats() | st.floats(-4.0, 4.0) | st.integers(-3, 80)
    | st.integers(-(10**600), 10**600)
    | st.sampled_from([5e-324, 1e-300, 1e300, 1e308, -1e308, 10**400])
)
# Any JSON value.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=8) | NUMBERS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)
# Places a mutation can reach in the base documents; "extra" is an unknown key.
PATHS = [
    ("model",), ("n",), ("g",), ("epsilon",), ("c",), ("c", 0), ("c", 1, 0), ("grid",),
    ("grid", "t0"), ("grid", "t1"), ("grid", "points"), ("sampling",), ("sampling", "t"),
    ("sampling", "trials"), ("sampling", "seed"), ("extra",),
]
DELETE = object()
# Sizes the contract admits but that would make one example take seconds.
CAPS = [(("n",), 8, MAX_OUTCOMES), (("grid", "points"), 64, MAX_GRID_POINTS),
        (("sampling", "trials"), 2000, MAX_TRIALS)]


def _base_document(model: str) -> dict:
    c = 1 / math.sqrt(3)
    doc = {
        "model": model, "n": 3, "g": 1.0, "c": [[c, 0.0], [0.0, c], [c, 0.0]],
        "grid": {"t0": 0.0, "t1": 1.5707963267948966, "points": 33},
        "sampling": {"t": 0.7853981633974483, "trials": 500, "seed": 3},
    }
    if model == "imperfect":
        doc["epsilon"] = 0.2
    return doc


def _container(doc, path):
    """The object holding path[-1], or None if an earlier mutation removed the route."""
    for key in path[:-1]:
        try:
            doc = doc[key]
        except (KeyError, IndexError, TypeError):
            return None
    return doc


def _mutate(doc: dict, mutations) -> dict:
    for path, value in mutations:
        holder, key = _container(doc, path), path[-1]
        if isinstance(holder, dict) and value is DELETE:
            holder.pop(key, None)
        elif value is not DELETE:
            with contextlib.suppress(IndexError, TypeError):  # no such slot any more
                holder[key] = value
    for path, cap, limit in CAPS:
        holder, key = _container(doc, path), path[-1]
        value = holder.get(key) if isinstance(holder, dict) else None
        if type(value) is int and cap < value <= limit:
            holder[key] = cap
    return doc


class TestContractProperty:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(
        model=st.sampled_from(["rotation", "imperfect"]),
        mutations=st.lists(
            st.tuples(st.sampled_from(PATHS), NUMBERS | JSON_VALUES | st.just(DELETE)),
            min_size=1, max_size=3,
        ),
    )
    def test_any_document_exits_within_contract(self, model, mutations):
        doc = _mutate(_base_document(model), mutations)
        with tempfile.TemporaryDirectory() as tmp:
            scenario = os.path.join(tmp, "s.json")
            with open(scenario, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            for command in ("run", "check", "sample"):
                out = [] if command == "check" else ["--out", os.path.join(tmp, "o.csv")]
                assert cli.main([command, scenario] + out) in (0, 2, 3, 4)


class TestAtomicWrite:
    def test_no_partial_file_on_success(self, tmp_path):
        target = tmp_path / "out.csv"
        cli._atomic_write(str(target), "hello\n")
        assert target.read_text() == "hello\n"
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".mclock-")]
        assert leftovers == []

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old")
        cli._atomic_write(str(target), "new")
        assert target.read_text() == "new"
