import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mclock.cli as cli
import mclock.dynamics as dynamics
from conftest import (
    basis_state,
    branch_rows,
    evolve_series,
    haar_state,
    happened_probability,
    random_frame_model,
    random_hermitian,
    ready_state,
    tensor_state,
)
from mclock import (
    DimensionMismatch,
    HermitianOperator,
    InvalidParameter,
    MeasurementModel,
    NumericalError,
    StateVector,
    TimeGrid,
    TimingTrajectory,
    build_imperfect_model,
    build_rotation_model,
    evolve,
    expectation,
    rate_operator,
    trajectory,
)
from mclock.hilbert import BLOCK_BYTES, expectations

SQ2 = 1 / math.sqrt(2)


class TestTimeGrid:
    def test_times_include_endpoints(self):
        grid = TimeGrid(0.0, 2.0, 5)
        assert np.allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert grid.step == pytest.approx(0.5)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(t_start=st.floats(-1e12, 1e12), span=st.floats(1e-9, 1e12),
           n_points=st.integers(2, 500), data=st.data())
    def test_times_and_their_slices_are_linspace_bit_for_bit(self, t_start, span, n_points,
                                                             data):
        assume(t_start + span > t_start)
        grid = TimeGrid(t_start, t_start + span, n_points)
        expected = np.linspace(grid.t_start, grid.t_end, n_points)
        assert grid.times.tobytes() == expected.tobytes()
        start = data.draw(st.integers(0, n_points))
        stop = data.draw(st.integers(start, n_points))
        assert grid.times_slice(start, stop).tobytes() == expected[start:stop].tobytes()

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameter):
            TimeGrid(0.0, 1.0, 1)
        with pytest.raises(InvalidParameter):
            TimeGrid(1.0, 1.0, 10)
        with pytest.raises(InvalidParameter):  # the span overflows to inf
            TimeGrid(-1e308, 1e308, 10)
        with pytest.raises(InvalidParameter, match="integer"):  # else .times raises TypeError
            TimeGrid(0.0, 1.0, 2.5)
        assert TimeGrid(np.float64(0.0), 1, np.int64(3)).times.tolist() == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("t_start, t_end", [("a", "b"), (0, 1j), (None, 1.0), (False, True)],
                             ids=["strings", "complex", "none", "bools"])
    def test_rejects_endpoints_that_are_not_real(self, t_start, t_end):
        # Compared or subtracted, the first three leaked TypeError; the bools
        # were taken as the grid [0, 1].
        with pytest.raises(InvalidParameter, match="t_(start|end) must be a real number"):
            TimeGrid(t_start, t_end, 3)


class TestEvolve:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(3)
        h = HermitianOperator((6,), random_hermitian(rng, 6))
        psi = haar_state(rng, (6,))
        out = evolve(h, psi, 0.0)
        assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-12

    def test_eigenstate_acquires_phase_only(self):
        omega = 1.7
        h = HermitianOperator((2,), np.diag([0.0, omega]))
        out = evolve(h, basis_state(2, 1), 2.3)
        expected = np.array([0.0, np.exp(-1j * omega * 2.3)])
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-14

    def test_group_property(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = HermitianOperator((5,), random_hermitian(rng, 5, scale=2.0))
            psi = haar_state(rng, (5,))
            t, s = rng.uniform(0, 3, size=2)
            once = evolve(h, psi, t + s)
            twice = evolve(h, evolve(h, psi, s), t)
            assert np.max(np.abs(once.amplitudes - twice.amplitudes)) < 1e-10

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            h = HermitianOperator((8,), random_hermitian(rng, 8, scale=3.0))
            psi = haar_state(rng, (8,))
            out = evolve(h, psi, float(rng.uniform(0, 10)))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10

    def test_dimension_mismatch(self):
        h = HermitianOperator((3,), np.eye(3))
        with pytest.raises(DimensionMismatch):
            evolve(h, basis_state(2, 0), 1.0)
        # The same number of amplitudes on other factor spaces is refused too.
        h = HermitianOperator((2, 3), np.eye(6))
        with pytest.raises(DimensionMismatch, match="dims"):
            evolve(h, StateVector((3, 2), basis_state(6, 0).amplitudes), 1.0)

    def test_matches_power_series_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            h_mat = random_hermitian(rng, 7, scale=2.0)
            psi = haar_state(rng, (7,))
            t = float(rng.uniform(0, 4))
            ours = evolve(HermitianOperator((7,), h_mat), psi, t).amplitudes
            oracle = evolve_series(h_mat, psi.amplitudes, t)
            assert np.max(np.abs(ours - oracle)) < 1e-12


def _rotation_setup():
    model = build_rotation_model(2, 1.0)
    h = model.interaction_hamiltonian
    psi0 = tensor_state(StateVector((2,), [SQ2, SQ2]), ready_state(model))
    return model, h, psi0


def _evolved_columns(h, psi0, times):
    return np.column_stack([evolve(h, psi0, t).amplitudes for t in times])


class TestTrajectory:
    def test_two_point_rotation_curve(self):
        model, _, psi0 = _rotation_setup()
        grid = TimeGrid(0.0, model.nominal_duration, 2)
        traj = trajectory(model, branch_rows(model, psi0), grid)
        assert np.allclose(traj.prob_happened, [0.0, 1.0], atol=1e-10)

    def test_full_space_projector_gives_one(self):
        _, h, psi0 = _rotation_setup()
        states = _evolved_columns(h, psi0, TimeGrid(0.0, 1.0, 9).times)
        assert np.allclose(expectations(np.eye(6), states), 1.0, atol=1e-12)

    def test_zero_projector_gives_zero(self):
        _, h, psi0 = _rotation_setup()
        states = _evolved_columns(h, psi0, TimeGrid(0.0, 1.0, 9).times)
        assert np.all(expectations(np.zeros((6, 6)), states) == 0.0)

    def test_finite_difference_matches_rate(self):
        model, _, psi0 = _rotation_setup()
        grid = TimeGrid(0.0, model.nominal_duration, 401)
        traj = trajectory(model, branch_rows(model, psi0), grid)
        hstep = grid.step
        diffs = (traj.prob_happened[2:] - traj.prob_happened[:-2]) / (2 * hstep)
        tol = max(1e-4, hstep**2)
        assert np.max(np.abs(diffs - traj.rate[1:-1])) < tol

    def test_trapezoidal_integral_of_rate(self):
        model, _, psi0 = _rotation_setup()
        grid = TimeGrid(0.0, model.nominal_duration, 1001)
        traj = trajectory(model, branch_rows(model, psi0), grid)
        hstep = grid.step
        integral = hstep * (np.sum(traj.rate) - 0.5 * (traj.rate[0] + traj.rate[-1]))
        assert abs(integral - (traj.prob_happened[-1] - traj.prob_happened[0])) < 1e-4

    def test_blocks_match_per_point_evolution(self):
        # Three whole blocks and a two-point final one; every point must
        # agree with evolving to it alone under the dense joint H. The random
        # frame's 32 branch eigenvalues take 30 distinct float values; the imperfect model's 30 take five,
        # and each branch exponentiates its own, equal levels included.
        rng = np.random.default_rng(11)
        for model in (
            random_frame_model(rng, 4, extra_apparatus=3),
            build_imperfect_model(5, 1.0, 0.1),
        ):
            h = model.interaction_hamiltonian
            psi0 = haar_state(rng, model.joint_dims)
            rows = branch_rows(model, psi0)
            grid = TimeGrid(0.0, 3.0, 3 * (BLOCK_BYTES // model.on_blocks(rows).nbytes) + 2)
            rate_op = rate_operator(model, h)
            traj = trajectory(model, rows, grid)
            for k, t in enumerate(grid.times):
                psi_t = evolve(h, psi0, t)
                assert abs(traj.prob_happened[k] - happened_probability(model, psi_t)) < 1e-14
                assert abs(traj.rate[k] - expectation(rate_op, psi_t)) < 1e-14

    def test_matches_series_oracle_on_entangled_state(self):
        # A Haar psi0 entangles system and apparatus and leaks outside the
        # pointer frame. The oracle propagates it under a joint H assembled
        # here from the branches with np.kron, and builds M and i[H, M] itself.
        rng = np.random.default_rng(12)
        model = random_frame_model(rng, 3, extra_apparatus=2, g=1.3)
        psi0 = haar_state(rng, model.joint_dims)
        h = sum(
            np.kron(np.outer(a, a.conj()), h_i)
            for a, h_i in zip(model.system_frame.T, model.branch_hamiltonians)
        )
        pairs = np.column_stack([
            np.kron(a, o) for a, o in zip(model.system_frame.T, model.pointer_frame.T[1:])
        ])
        m = pairs @ pairs.conj().T
        r = 1j * (h @ m - m @ h)
        grid = TimeGrid(0.0, 2.5, 26)
        traj = trajectory(model, branch_rows(model, psi0), grid)
        for k, t in enumerate(grid.times):
            psi_t = evolve_series(h, psi0.amplitudes, t)
            assert abs(traj.prob_happened[k] - np.vdot(psi_t, m @ psi_t).real) < 1e-12
            assert abs(traj.rate[k] - np.vdot(psi_t, r @ psi_t).real) < 1e-12

    def test_closed_form_at_twenty_outcomes(self):
        # Branch i rotates ready -> pointer_i at rate g_i, so
        # P = sum |c_i|^2 sin^2(g_i t) and p = sum |c_i|^2 g_i sin(2 g_i t).
        rng = np.random.default_rng(13)
        n, g, eps = 20, 1.7, 0.3
        model = build_imperfect_model(n, g, eps)
        coeffs = haar_state(rng, (n,))
        psi0 = tensor_state(coeffs, ready_state(model))
        grid = TimeGrid(0.0, 2 * model.nominal_duration, 301)
        traj = trajectory(model, branch_rows(model, psi0), grid)
        weights = np.abs(coeffs.amplitudes) ** 2
        rates = np.full(n, g)
        rates[0] = g * (1 - eps)
        phase = np.multiply.outer(grid.times, rates)
        assert np.max(np.abs(traj.prob_happened - np.sin(phase) ** 2 @ weights)) < 1e-12
        assert np.max(np.abs(traj.rate - np.sin(2 * phase) @ (weights * rates))) < 1e-12

    def test_general_frame_at_large_coupling(self):
        # Branch i rotates ready -> pointer_i at rate g in a Haar-random frame,
        # so from the balanced state P = sin^2(g t) and p = g sin(2 g t). The
        # branch Hamiltonians' rounding asymmetry grows with g, and so does
        # the rate operator's; both tolerances scale with the operator.
        for g in (1e6, 1e9):
            model = random_frame_model(np.random.default_rng(3), 3, extra_apparatus=2, g=g)
            system = StateVector((3,), model.system_frame @ np.full(3, 1 / math.sqrt(3)))
            psi0 = tensor_state(system, ready_state(model))
            grid = TimeGrid(0.0, math.pi / (2 * g), 201)
            traj = trajectory(model, branch_rows(model, psi0), grid)
            phase = g * grid.times
            assert np.max(np.abs(traj.prob_happened - np.sin(phase) ** 2)) < 1e-12
            assert np.max(np.abs(traj.rate / g - np.sin(2 * phase))) < 1e-12

    def test_padded_supports_match_series_oracle(self):
        # n = 3 on a 6-level apparatus (levels 4 and 5 are outside the pointer
        # frame). Branch 0 also couples pointer 0 to level 4, so its block and
        # its operators' rows are {0, 1, 4}. Branch 1 also couples ready to
        # level 5, so its block {0, 2, 5} holds a row outside its operators'
        # rows through which its state still flows. Branch 2's block {0, 3} is
        # padded to 3 with level 1. The blocks are written on those coordinates
        # and the dense stack the oracle reads separately.
        n, d, g = 3, 6, 1.1
        h = np.zeros((n, d, d), dtype=complex)
        blocks = np.zeros((n, 3, 3), dtype=complex)
        for i in range(n):
            h[i, i + 1, 0], h[i, 0, i + 1] = 1j * g, -1j * g
            blocks[i, 1, 0], blocks[i, 0, 1] = 1j * g, -1j * g
        h[0, 4, 1], h[0, 1, 4] = blocks[0, 2, 1], blocks[0, 1, 2] = 0.7, 0.7
        h[1, 5, 0], h[1, 0, 5] = blocks[1, 2, 0], blocks[1, 0, 2] = 0.4j, -0.4j
        index = [[0, 1, 4], [0, 2, 5], [0, 3, 1]]
        model = MeasurementModel(np.eye(n), np.eye(d)[:, : n + 1], index, blocks,
                                 math.pi / (2 * g), 0.0)
        assert np.array_equal(model.branch_hamiltonians, h)
        psi0 = haar_state(np.random.default_rng(14), model.joint_dims)
        joint = sum(np.kron(np.diag(np.eye(n)[i]), h[i]) for i in range(n))
        pairs = np.column_stack([np.kron(np.eye(n)[i], np.eye(d)[i + 1]) for i in range(n)])
        m = pairs @ pairs.T
        r = 1j * (joint @ m - m @ joint)
        grid = TimeGrid(0.0, 3.0, 31)
        traj = trajectory(model, branch_rows(model, psi0), grid)
        for k, t in enumerate(grid.times):
            psi_t = evolve_series(joint, psi0.amplitudes, t)
            assert abs(traj.prob_happened[k] - np.vdot(psi_t, m @ psi_t).real) < 1e-12
            assert abs(traj.rate[k] - np.vdot(psi_t, r @ psi_t).real) < 1e-12

    def test_overflowing_phase_raises(self):
        # lambda t = 1e310 overflows; the phase check turns the NaN into an error.
        model = build_rotation_model(2, 1e300)
        psi0 = tensor_state(StateVector((2,), [SQ2, SQ2]), ready_state(model))
        with pytest.raises(NumericalError, match="phase"):
            trajectory(model, branch_rows(model, psi0), TimeGrid(0.0, 1e10, 11))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_phase_is_a_numerical_failure_without_warnings(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({
            "model": "rotation", "n": 2, "g": 1e300, "c": [[SQ2, 0.0], [SQ2, 0.0]],
            "grid": {"t0": 0.0, "t1": 1e10, "points": 11},
        }))
        for args in (["run", str(scenario), "--out", str(tmp_path / "t.csv")],
                     ["check", str(scenario)]):
            assert cli.main(args) == 3
            err = capsys.readouterr().err
            assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_non_unit_coefficients_raise(self):
        model, _, psi0 = _rotation_setup()
        rows = branch_rows(model, psi0)
        with pytest.raises(NumericalError, match="coefficients"):
            trajectory(model, 1.001 * rows, TimeGrid(0.0, 1.0, 3))

    def test_rejects_state_on_other_space(self):
        # The rows must be (n, d): the joint amplitudes flattened, the rows
        # transposed or cut to fewer apparatus levels are all refused.
        model, _, psi0 = _rotation_setup()
        rows = branch_rows(model, psi0)
        for wrong in (basis_state(6, 0).amplitudes, rows.T, rows[:, :2]):
            with pytest.raises(DimensionMismatch):
                trajectory(model, wrong, TimeGrid(0.0, 1.0, 3))

    def test_imaginary_expectation_raises(self):
        # iδ·(all ones) passes the Hermiticity check (deviation 2δ = 9e-13)
        # but has expectation 512iδ = 2.3e-10i in the uniform state.
        dim = 512
        psi0 = np.full((dim, 1), 1 / math.sqrt(dim), dtype=complex)
        tilted = HermitianOperator((dim,), 4.5e-13j * np.ones((dim, dim)))
        with pytest.raises(NumericalError, match="imaginary"):
            expectations(tilted.matrix, psi0)
        # A stack in which only the second branch has the imaginary part.
        stack = np.stack([np.zeros((dim, dim)), tilted.matrix])
        with pytest.raises(NumericalError, match="imaginary"):
            expectations(stack, np.stack([psi0, psi0]))

    @pytest.mark.parametrize("nan", [complex(math.nan, 0.0), complex(0.0, math.nan)])
    @pytest.mark.parametrize("branch, entry", [(0, 0), (1, 1)])
    def test_non_finite_block_fails_the_rate_expectation(self, monkeypatch, nan, branch, entry):
        # P and p are plain sums with no check of their own; a NaN in the
        # evolved blocks must still fail TimingTrajectory's range check.
        propagator = dynamics._propagator

        def corrupted(dec, amplitudes):
            coeffs, propagate = propagator(dec, amplitudes)

            def at(times):
                phis = propagate(times)
                phis[branch, entry] = nan
                return phis

            return coeffs, at

        monkeypatch.setattr(dynamics, "_propagator", corrupted)
        model, _, psi0 = _rotation_setup()
        with pytest.raises(NumericalError, match=r"probability curve leaves \[0, 1\]"):
            trajectory(model, branch_rows(model, psi0), TimeGrid(0.0, 1.0, 3))


def _imperfect_rows(n):
    """An imperfect model and the branch rows of a Haar system state on |ready>."""
    model = build_imperfect_model(n, 1.0, 0.1)
    system = haar_state(np.random.default_rng(n), (n,))
    return model, branch_rows(model, tensor_state(system, ready_state(model)))


class TestTrajectoryBlocks:
    @staticmethod
    def _block_sizes(monkeypatch):
        """The point count of each block ``trajectory`` evaluates, as it evaluates them."""
        sizes = []
        propagator = dynamics._propagator

        def spy(dec, amplitudes):
            coeffs, propagate = propagator(dec, amplitudes)

            def at(times):
                sizes.append(times.size)
                return propagate(times)

            return coeffs, at

        monkeypatch.setattr(dynamics, "_propagator", spy)
        return sizes

    # In the larger grid of each pair, blocks of n d amplitudes left the last
    # point alone, and numpy's matrix-vector path moved P or p there by 1-2
    # ulps. The last two pairs sit on edges of the BLOCK_BYTES blocks of n s
    # amplitudes (16 n s bytes a point, s = 2), where a one-point remainder
    # is folded into the block before.
    @pytest.mark.parametrize("n, points", [
        (2, 10_922), (20, 156), (50, 5_000),
        (2, BLOCK_BYTES // (16 * 2 * 2)), (20, 2 * (BLOCK_BYTES // (16 * 20 * 2))),
    ])
    def test_a_point_does_not_depend_on_the_rest_of_the_grid(self, n, points, monkeypatch):
        model, rows = _imperfect_rows(n)
        end = model.nominal_duration
        sizes = self._block_sizes(monkeypatch)
        alone = trajectory(model, rows, TimeGrid(0.0, end, 2))
        for count in (points, points + 1):
            traj = trajectory(model, rows, TimeGrid(0.0, end, count))
            assert traj.prob_happened[-1] == alone.prob_happened[-1]
            assert traj.rate[-1] == alone.rate[-1]
        assert sum(sizes) == 2 + 2 * points + 1
        assert min(sizes) >= 2

    @pytest.mark.parametrize("budget", [0, 1, 2, 3, 5])
    def test_every_block_holds_two_points(self, budget, monkeypatch):
        # A budget of ``budget`` points a block at n = 2 (64 bytes a point);
        # below two points it takes two.
        size = max(2, budget)
        model, rows = _imperfect_rows(2)
        monkeypatch.setattr(dynamics, "BLOCK_BYTES", budget * 64)
        sizes = self._block_sizes(monkeypatch)
        for points in range(2, 4 * size + 2):
            sizes.clear()
            trajectory(model, rows, TimeGrid(0.0, 1.0, points))
            assert sum(sizes) == points
            assert 2 <= min(sizes) and max(sizes) <= size + 1

    @pytest.mark.parametrize("n, points", [(2, 20_001), (100, 2_001)])
    def test_temporaries_stay_within_a_few_blocks(self, n, points):
        # Traced above the two output curves: measured 5.3 blocks at n = 2
        # and 4.3 at n = 100; blocks of n d amplitudes held 22.6 at n = 2.
        model, rows = _imperfect_rows(n)
        grid = TimeGrid(0.0, 3.0, points)
        trajectory(model, rows, grid)  # first-use caches out of the trace
        tracemalloc.start()
        try:
            trajectory(model, rows, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 2 * 8 * points < 8 * BLOCK_BYTES

    def test_record_adopts_the_curves(self):
        # Traced above the two curves and the grid's times: measured 5.6
        # blocks at 200,001 points (27.7 B a point in all). Copying the curves
        # into the record held 16 B a point more, 30.0 blocks.
        model, rows = _imperfect_rows(2)
        grid = TimeGrid(0.0, 3.0, 200_001)
        trajectory(model, rows, grid)  # first-use caches out of the trace
        tracemalloc.start()
        try:
            traj = trajectory(model, rows, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 3 * 8 * grid.n_points < 8 * BLOCK_BYTES
        for curve in (traj.prob_happened, traj.rate):
            assert curve.base is None and not curve.flags.writeable


class TestTimingTrajectoryInvariants:
    def test_rejects_probability_out_of_range(self):
        grid = TimeGrid(0.0, 1.0, 2)
        with pytest.raises(NumericalError):
            TimingTrajectory(grid, np.array([0.0, 1.5]), np.zeros(2))

    def test_rejects_nan_probability(self):
        grid = TimeGrid(0.0, 1.0, 2)
        with pytest.raises(NumericalError):
            TimingTrajectory(grid, np.array([0.0, np.nan]), np.zeros(2))

    def test_rejects_non_finite_rate(self):
        grid = TimeGrid(0.0, 1.0, 2)
        for rate in ([np.nan, 0.0], [0.0, np.inf]):
            with pytest.raises(NumericalError):
                TimingTrajectory(grid, np.array([0.0, 0.5]), np.array(rate))

    def test_rejects_length_mismatch(self):
        grid = TimeGrid(0.0, 1.0, 3)
        with pytest.raises(DimensionMismatch):
            TimingTrajectory(grid, np.zeros(2), np.zeros(3))
        with pytest.raises(DimensionMismatch):
            TimingTrajectory(grid, np.zeros((3, 1)), np.zeros(3))

    def test_keeps_frozen_owned_curves_and_copies_the_rest(self):
        grid = TimeGrid(0.0, 1.0, 2)
        frozen = np.array([0.0, 0.5])
        frozen.setflags(write=False)
        writable = np.array([1.0, 2.0])
        traj = TimingTrajectory(grid, frozen, writable)
        assert traj.prob_happened is frozen
        assert traj.rate is not writable and writable.flags.writeable
        writable[0] = 5.0
        assert traj.rate[0] == 1.0
        view = np.array([0.0, 0.5, 1.0])[:2]
        view.setflags(write=False)
        assert TimingTrajectory(grid, view, frozen).prob_happened is not view
        assert TimingTrajectory(grid, [0, 1], frozen).prob_happened.dtype == np.float64
