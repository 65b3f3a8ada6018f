import math

import numpy as np
import pytest

from conftest import evolve_series, haar_state, random_frame_model, random_hermitian
from mclock import (
    HermitianOperator,
    InvalidParameter,
    NumericalError,
    StateVector,
    TimeGrid,
    TimingTrajectory,
    basis_state,
    build_rotation_model,
    evolve,
    expectation,
    happened_probability,
    happened_projector,
    identity_operator,
    rate_operator,
    tensor_state,
    trajectory,
)
from mclock.dynamics import BLOCK_AMPLITUDES

SQ2 = 1 / math.sqrt(2)


class TestTimeGrid:
    def test_times_include_endpoints(self):
        grid = TimeGrid(0.0, 2.0, 5)
        assert np.allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert grid.step == pytest.approx(0.5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameter):
            TimeGrid(0.0, 1.0, 1)
        with pytest.raises(InvalidParameter):
            TimeGrid(1.0, 1.0, 10)


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
    psi0 = tensor_state(StateVector((2,), [SQ2, SQ2]), model.pointer_ready)
    return model, h, psi0


class TestTrajectory:
    def test_two_point_rotation_curve(self):
        model, h, psi0 = _rotation_setup()
        grid = TimeGrid(0.0, model.nominal_duration, 2)
        traj = trajectory(h, psi0, grid, happened_projector(model), rate_operator(model, h))
        assert np.allclose(traj.prob_happened, [0.0, 1.0], atol=1e-10)

    def test_full_space_projector_gives_one(self):
        model, h, psi0 = _rotation_setup()
        grid = TimeGrid(0.0, 1.0, 9)
        eye = identity_operator(h.dims)
        traj = trajectory(h, psi0, grid, eye, rate_operator(model, h))
        assert np.allclose(traj.prob_happened, 1.0, atol=1e-12)

    def test_zero_projector_gives_zero(self):
        model, h, psi0 = _rotation_setup()
        grid = TimeGrid(0.0, 1.0, 9)
        zero = HermitianOperator(h.dims, np.zeros((6, 6)))
        traj = trajectory(h, psi0, grid, zero, zero)
        assert np.all(traj.prob_happened == 0.0)
        assert np.all(traj.rate == 0.0)

    def test_finite_difference_matches_rate(self):
        model, h, psi0 = _rotation_setup()
        grid = TimeGrid(0.0, model.nominal_duration, 401)
        traj = trajectory(h, psi0, grid, happened_projector(model), rate_operator(model, h))
        hstep = grid.step
        diffs = (traj.prob_happened[2:] - traj.prob_happened[:-2]) / (2 * hstep)
        tol = max(1e-4, hstep**2)
        assert np.max(np.abs(diffs - traj.rate[1:-1])) < tol

    def test_trapezoidal_integral_of_rate(self):
        model, h, psi0 = _rotation_setup()
        grid = TimeGrid(0.0, model.nominal_duration, 1001)
        traj = trajectory(h, psi0, grid, happened_projector(model), rate_operator(model, h))
        hstep = grid.step
        integral = hstep * (np.sum(traj.rate) - 0.5 * (traj.rate[0] + traj.rate[-1]))
        assert abs(integral - (traj.prob_happened[-1] - traj.prob_happened[0])) < 1e-4

    def test_blocks_match_per_point_evolution(self):
        # Enough points to cross three block boundaries, with a one-point
        # final block; every point must agree with evolving to it alone.
        rng = np.random.default_rng(11)
        model = random_frame_model(rng, 4, extra_apparatus=3)
        h = model.interaction_hamiltonian
        psi0 = haar_state(rng, model.joint_dims)
        grid = TimeGrid(0.0, 3.0, 3 * (BLOCK_AMPLITUDES // psi0.dim) + 1)
        rate_op = rate_operator(model, h)
        traj = trajectory(h, psi0, grid, happened_projector(model), rate_op)
        for k, t in enumerate(grid.times):
            psi_t = evolve(h, psi0, t)
            assert abs(traj.prob_happened[k] - happened_probability(model, psi_t)) < 1e-14
            assert abs(traj.rate[k] - expectation(rate_op, psi_t)) < 1e-14

    def test_imaginary_expectation_raises(self):
        # iδ·(all ones) passes the Hermiticity check (deviation 2δ = 9e-13)
        # but has expectation 512iδ = 2.3e-10i in the uniform state.
        dim = 512
        h = HermitianOperator((dim,), np.zeros((dim, dim)))
        psi0 = StateVector((dim,), np.full(dim, 1 / math.sqrt(dim)))
        tilted = HermitianOperator((dim,), 4.5e-13j * np.ones((dim, dim)))
        with pytest.raises(NumericalError, match="imaginary"):
            trajectory(h, psi0, TimeGrid(0.0, 1.0, 3), tilted, h)


class TestTimingTrajectoryInvariants:
    def test_rejects_probability_out_of_range(self):
        grid = TimeGrid(0.0, 1.0, 2)
        with pytest.raises(NumericalError):
            TimingTrajectory(grid, np.array([0.0, 1.5]), np.zeros(2))

    def test_rejects_length_mismatch(self):
        grid = TimeGrid(0.0, 1.0, 3)
        with pytest.raises(Exception):
            TimingTrajectory(grid, np.zeros(2), np.zeros(3))
