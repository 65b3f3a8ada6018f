import json
import logging
import math

import numpy as np
import pytest

from conftest import replace
from mclock import (
    MClockError,
    NumericalError,
    ParseError,
    TimeGrid,
    ValidationError,
    build_model,
    build_rotation_model,
    emit_sampling_csv,
    emit_trajectory_csv,
    initial_state,
    parse_scenario,
    sample_trials,
    trajectory,
)
from mclock.csv17 import _FIELD
from mclock.hilbert import BLOCK_BYTES
from mclock.scenario_io import MAX_GRID_POINTS, MAX_OUTCOMES, MAX_TRIALS

MINIMAL = """
{
  "model": "rotation",
  "n": 2,
  "g": 1.0,
  "c": [[0.7071, 0], [0.7071, 0]],
  "grid": {"t0": 0, "t1": 1.5708, "points": 201}
}
"""


def scenario_with(**overrides) -> str:
    doc = {
        "model": "rotation",
        "n": 2,
        "g": 1.0,
        "c": [[0.7071, 0], [0.7071, 0]],
        "grid": {"t0": 0, "t1": 1.5708, "points": 201},
    }
    doc.update(overrides)
    return json.dumps(doc)


class TestParseScenario:
    def test_minimal_document(self):
        spec = parse_scenario(MINIMAL)
        # a rotation document is the imperfect one with epsilon = 0
        assert spec == parse_scenario(MINIMAL.replace('"rotation"', '"imperfect"'))
        assert spec.n_outcomes == 2
        assert spec.coupling_g == 1.0
        assert spec.epsilon == 0.0
        assert spec.grid == TimeGrid(0.0, 1.5708, 201)
        assert spec.sampling is None
        # the grid spans the nominal duration pi/(2g)
        assert spec.grid.t_end >= math.pi / 2 - 1e-3

    def test_coefficients_renormalized(self, caplog):
        with caplog.at_level(logging.INFO, logger="mclock.scenario_io"):
            spec = parse_scenario(MINIMAL)
        norm = math.sqrt(sum(abs(z) ** 2 for z in spec.initial_coefficients))
        assert abs(norm - 1.0) < 1e-12
        assert any("renormalizing" in r.message for r in caplog.records)

    def test_rejects_far_from_normalized(self):
        with pytest.raises(ValidationError):
            parse_scenario(scenario_with(c=[[1, 0], [1, 0]]))

    def test_rejects_unknown_top_level_key(self):
        with pytest.raises(ParseError):
            parse_scenario(scenario_with(extra=1))

    def test_rejects_unknown_grid_key(self):
        with pytest.raises(ParseError):
            parse_scenario(scenario_with(grid={"t0": 0, "t1": 1, "dt": 0.1}))

    @pytest.mark.parametrize("key, entry", [("g", '"g": 1.0,'), ("t1", '"t1": 1.5708,')],
                             ids=["top-level", "nested"])
    def test_rejects_repeated_key(self, key, entry):
        # Without the check the last of the repeated values would win silently.
        text = MINIMAL.replace(entry, f'{entry} "{key}": 1e6,')
        assert text.count(f'"{key}"') == 2
        with pytest.raises(ParseError, match=f"repeated key '{key}'"):
            parse_scenario(text)

    def test_malformed_json_reports_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_scenario('{\n  "model": "rotation",\n  oops\n}')
        assert excinfo.value.line == 3

    def test_missing_required_key(self):
        with pytest.raises(ParseError):
            parse_scenario('{"model": "rotation", "n": 2}')

    def test_wrong_types_are_parse_errors(self):
        for bad in (
            scenario_with(n=2.5),
            scenario_with(n="2"),
            scenario_with(g="fast"),
            scenario_with(c="nope"),
            scenario_with(c=[[0.7071], [0.7071, 0]]),
            scenario_with(grid=[0, 1]),
        ):
            with pytest.raises(ParseError):
                parse_scenario(bad)

    def test_value_range_validation(self):
        with pytest.raises(ValidationError):
            parse_scenario(scenario_with(n=1, c=[[1, 0]]))
        with pytest.raises(ValidationError):
            parse_scenario(scenario_with(g=0))
        with pytest.raises(ValidationError):
            parse_scenario(scenario_with(g=-2.0))
        with pytest.raises(ValidationError):
            parse_scenario(scenario_with(model="imperfect", epsilon=1.0))
        with pytest.raises(ValidationError):
            parse_scenario(scenario_with(model="melting"))
        with pytest.raises(ValidationError):
            parse_scenario(scenario_with(epsilon=0.2))  # rotation takes no epsilon
        with pytest.raises(ValidationError):
            parse_scenario(scenario_with(c=[[0.5, 0], [0.5, 0], [0.5, 0]]))
        with pytest.raises(ValidationError):
            parse_scenario(scenario_with(grid={"t0": 1, "t1": 0}))
        with pytest.raises(ValidationError):
            parse_scenario(
                scenario_with(sampling={"t": 0.5, "trials": 0, "seed": 1})
            )

    def test_resource_limits(self):
        # One past each limit is an input error; parsing allocates nothing.
        unit = [[1.0, 0.0]] + [[0.0, 0.0]] * MAX_OUTCOMES
        with pytest.raises(ValidationError, match=r"\bn must"):
            parse_scenario(scenario_with(n=MAX_OUTCOMES + 1, c=unit))
        with pytest.raises(ValidationError, match="grid.points"):
            parse_scenario(scenario_with(grid={"t0": 0, "t1": 1, "points": MAX_GRID_POINTS + 1}))
        with pytest.raises(ValidationError, match="sampling.trials"):
            parse_scenario(scenario_with(
                sampling={"t": 0.5, "trials": MAX_TRIALS + 1, "seed": 1}))
        with pytest.raises(ValidationError, match="sampling.trials"):
            parse_scenario(scenario_with(
                sampling={"t": 0.5, "trials": 100_000_000_000, "seed": 1}))

    def test_resource_limits_admit_benchmark_sizes(self):
        # The limits themselves parse, and they cover the largest benchmark
        # sizes: n = 40, 20001 grid points, 1e6 trials.
        spec = parse_scenario(scenario_with(
            n=MAX_OUTCOMES, c=[[1.0, 0.0]] + [[0.0, 0.0]] * (MAX_OUTCOMES - 1),
            grid={"t0": 0, "t1": 1, "points": MAX_GRID_POINTS},
            sampling={"t": 0.5, "trials": MAX_TRIALS, "seed": 1},
        ))
        assert spec.n_outcomes >= 40
        assert spec.grid.n_points >= 20001
        assert spec.sampling.n_trials >= 1_000_000

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="sampling.seed"):
            parse_scenario(scenario_with(sampling={"t": 0.5, "trials": 10, "seed": -1}))

    def test_overflowing_coefficient_is_a_validation_error(self):
        for c in ([[1e308, 0], [0, 0]], [[1.7e308, 1.7e308], [0, 0]]):
            with pytest.raises(ValidationError, match="norm inf"):
                parse_scenario(scenario_with(c=c))

    def test_rejects_non_finite_numbers(self):
        with pytest.raises(ParseError):
            parse_scenario(scenario_with(g=1).replace('"g": 1', '"g": NaN'))
        with pytest.raises(ParseError):
            parse_scenario(scenario_with(g=1).replace('"g": 1', '"g": Infinity'))

    def test_grid_points_default(self):
        spec = parse_scenario(scenario_with(grid={"t0": 0, "t1": 1}))
        assert spec.grid.n_points == 201

    def test_sampling_block(self):
        spec = parse_scenario(
            scenario_with(sampling={"t": 0.75, "trials": 1000, "seed": 9})
        )
        assert spec.sampling is not None
        assert spec.sampling.t == 0.75
        assert spec.sampling.n_trials == 1000
        assert spec.sampling.seed == 9

    def test_sampling_missing_key(self):
        with pytest.raises(ParseError):
            parse_scenario(scenario_with(sampling={"t": 0.75, "trials": 1000}))

    def test_parser_totality(self):
        garbage = [
            "",
            "null",
            "[]",
            "42",
            '"scenario"',
            "{",
            '{"model": 5}',
            '{"model": "rotation", "n": true, "g": 1, "c": [], "grid": {}}',
            MINIMAL.replace("rotation", chr(0) + "rotation"),
        ]
        for text in garbage:
            with pytest.raises(MClockError):
                parse_scenario(text)


def _small_trajectory():
    spec = parse_scenario(scenario_with(grid={"t0": 0, "t1": 1.5707963267948966,
                                              "points": 5}))
    model = build_model(spec)
    return trajectory(model, initial_state(spec, model), spec.grid)


class TestEmitTrajectoryCsv:
    def test_structure(self):
        text = emit_trajectory_csv(_small_trajectory())
        lines = text.strip().split("\n")
        assert lines[0] == "t,P,p"
        assert len(lines) == 5 + 1
        assert lines[1].startswith("0,")

    def test_bit_exact_round_trip(self):
        traj = _small_trajectory()
        text = emit_trajectory_csv(traj)
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        parsed_p = np.array([float(r[1]) for r in rows])
        parsed_rate = np.array([float(r[2]) for r in rows])
        assert np.array_equal(parsed_p, traj.prob_happened)
        assert np.array_equal(parsed_rate, traj.rate)

    ROWS = BLOCK_BYTES // (_FIELD * 3)  # CSV rows per block of t, P, p

    @pytest.mark.parametrize("points", [ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1],
                             ids=["edge-1", "edge", "edge+1", "2edge+1"])
    def test_matches_printf_at_block_edges(self, points):
        # From t = 0, whose row and the rows with P < 1e-4 the formatter
        # leaves to "%", past t = 1, where the exponent of t turns 0.
        spec = parse_scenario(scenario_with(
            model="imperfect", epsilon=0.1, grid={"t0": 0, "t1": 3.0, "points": points}))
        model = build_model(spec)
        traj = trajectory(model, initial_state(spec, model), spec.grid)
        rows = zip(traj.grid.times.tolist(), traj.prob_happened.tolist(), traj.rate.tolist())
        expected = "".join(["t,P,p\n"] + ["%.17g,%.17g,%.17g\n" % row for row in rows])
        assert emit_trajectory_csv(traj) == expected


class TestEmitSamplingCsv:
    def test_structure_and_round_trip(self):
        model = build_rotation_model(2, 1.0)
        spec = parse_scenario(scenario_with(
            sampling={"t": 0.7853981633974483, "trials": 250, "seed": 3}))
        rows = initial_state(spec, model)
        _, report = sample_trials(
            model, rows, spec.sampling.t, spec.sampling.n_trials, spec.sampling.seed,
        )
        text = emit_sampling_csv(report)
        header, row = text.strip().split("\n")
        assert header == "t,trials,case1,estimate,std_error,exact_P"
        cells = row.split(",")
        assert int(cells[1]) == 250
        assert float(cells[3]) == report.estimate
        assert float(cells[5]) == report.exact_prob


class TestModelWiring:
    def test_rotation_initial_state(self):
        spec = parse_scenario(scenario_with(n=3, c=[[1, 0], [0, 0], [0, 0]]))
        model = build_model(spec)
        rows = initial_state(spec, model)
        expected = np.zeros((3, 4))
        expected[0, 0] = 1.0
        assert np.allclose(rows, expected, atol=1e-15)
        assert rows.shape == (3, 4)
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0  # read-only

    def test_off_norm_coefficients_are_caught_where_the_rows_are_used(self):
        # initial_state does not check the norm again: parse_scenario has
        # normalised c, and trajectory's coefficient weight or
        # joint_distribution's sum catches rows built from any other c.
        spec = parse_scenario(scenario_with(
            sampling={"t": 0.7853981633974483, "trials": 250, "seed": 3}))
        spec = replace(
            spec, initial_coefficients=tuple(1.001 * z for z in spec.initial_coefficients))
        model = build_model(spec)
        rows = initial_state(spec, model)
        with pytest.raises(NumericalError, match="total weight"):
            trajectory(model, rows, spec.grid)
        with pytest.raises(NumericalError, match="sum to"):
            sample_trials(model, rows, spec.sampling.t, 250, 3)

    def test_imperfect_model_kind(self):
        spec = parse_scenario(scenario_with(model="imperfect", epsilon=0.25))
        model = build_model(spec)
        assert model.fidelity == pytest.approx(math.sin(0.375 * math.pi) ** 2)
