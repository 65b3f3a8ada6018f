import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    basis_state,
    branch_rows,
    haar_state,
    happened_probability,
    random_frame_model,
    ready_state,
    tensor_state,
)
from mclock import (
    DimensionMismatch,
    InvalidParameter,
    NumericalError,
    StateVector,
    build_imperfect_model,
    build_rotation_model,
    evolve,
    joint_distribution,
    sample_trials,
)
from mclock.hilbert import BLOCK_BYTES
from mclock.operational import _tally

SQ2 = 1 / math.sqrt(2)


def balanced_start(model):
    amps = np.full(model.system_dim, 1 / math.sqrt(model.system_dim), dtype=complex)
    return tensor_state(StateVector((model.system_dim,), amps), ready_state(model))


def balanced_rows(model):
    return branch_rows(model, balanced_start(model))


class TestJointDistribution:
    def test_ready_state_all_mass_on_ready_pointer(self):
        model = build_rotation_model(2, 1.0)
        dist = joint_distribution(model, balanced_rows(model))
        ready_mass = dist[:, 0].sum()
        assert ready_mass == pytest.approx(1.0, abs=1e-12)
        assert np.trace(dist, offset=1) == pytest.approx(0.0, abs=1e-12)

    def test_correlated_state_fully_matched(self):
        model = build_rotation_model(2, 1.0)
        psi_t = evolve(model.interaction_hamiltonian, balanced_start(model),
                       model.nominal_duration)
        dist = joint_distribution(model, branch_rows(model, psi_t))
        assert dist[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert dist[1, 2] == pytest.approx(0.5, abs=1e-12)
        assert np.trace(dist, offset=1) == pytest.approx(1.0, abs=1e-12)

    def test_half_way_point(self):
        model = build_rotation_model(2, 1.0)
        psi = evolve(model.interaction_hamiltonian, balanced_start(model), math.pi / 4)
        dist = joint_distribution(model, branch_rows(model, psi))
        assert np.trace(dist, offset=1) == pytest.approx(0.5, abs=1e-12)

    def test_matched_mass_equals_projector_expectation(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            model = random_frame_model(rng, n, extra_apparatus=int(rng.integers(0, 3)))
            psi = haar_state(rng, model.joint_dims)
            dist = joint_distribution(model, branch_rows(model, psi))
            total = dist.sum()
            assert abs(total - 1.0) < 1e-10
            assert abs(
                np.trace(dist, offset=1) - happened_probability(model, psi)
            ) < 1e-10

    def test_is_read_only_and_rejects_rows_off_unit_norm(self):
        model = build_rotation_model(2, 1.0)
        rows = balanced_rows(model)
        dist = joint_distribution(model, rows)
        assert dist.shape == (2, 4)
        with pytest.raises(ValueError):
            dist[0, 0] = 0.5
        for bad in (1.001 * rows, np.full_like(rows, np.nan)):
            with pytest.raises(NumericalError):
                joint_distribution(model, bad)

    def test_rejects_rows_that_are_not_the_models(self):
        # On n = 2, d = 3: too many levels would fail inside matmul, and too
        # many or too few branches would make a distribution of other rows.
        model = build_imperfect_model(2, 1.0, 0.1)
        for shape in ((2, 4), (3, 3), (1, 3)):
            with pytest.raises(DimensionMismatch, match=r"not the model's \(n, d\) = \(2, 3\)"):
                joint_distribution(model, np.full(shape, 0.5, dtype=complex))

    def test_residual_bucket_collects_leakage(self):
        rng = np.random.default_rng(47)
        model = random_frame_model(rng, 2, extra_apparatus=2)
        psi = haar_state(rng, model.joint_dims)
        dist = joint_distribution(model, branch_rows(model, psi))
        residual = dist[:, 3].sum()
        assert residual > 1e-3  # a Haar state leaks outside the pointer frame


class TestSampleTrials:
    def test_concentrated_distribution_is_always_case1(self):
        model = build_rotation_model(2, 1.0)
        pair = tensor_state(basis_state(2, 0), basis_state(3, 1))
        counts, report = sample_trials(model, branch_rows(model, pair), 0.0, 1, seed=1)
        assert report.case1_count == 1
        assert counts.dtype == np.int64 and counts.shape == (2, 4)
        # The one trial is q outcome 0 with its matched pointer, j = 1.
        assert counts.sum() == 1 and counts[0, 1] == 1

    def test_single_trial_estimate_is_zero_or_one(self):
        model = build_rotation_model(2, 1.0)
        _, report = sample_trials(model, balanced_rows(model), math.pi / 4, 1, seed=5)
        assert report.estimate in (0.0, 1.0)

    def test_seed_determinism(self):
        model = build_rotation_model(2, 1.0)
        first = sample_trials(model, balanced_rows(model), 0.9, 500, seed=123)
        second = sample_trials(model, balanced_rows(model), 0.9, 500, seed=123)
        assert np.array_equal(first[0], second[0])
        assert first[1] == second[1]

    def test_different_seeds_differ(self):
        model = build_rotation_model(2, 1.0)
        first = sample_trials(model, balanced_rows(model), 0.9, 500, seed=1)
        second = sample_trials(model, balanced_rows(model), 0.9, 500, seed=2)
        assert not np.array_equal(first[0], second[0])

    def test_estimator_consistency_matrix(self):
        cases = [
            (build_rotation_model(2, 1.0), 0.3, 11),
            (build_rotation_model(3, 1.0), math.pi / 4, 12),
            (build_rotation_model(2, 2.0), 0.5, 13),
            (build_imperfect_model(2, 1.0, 0.2), 1.2, 14),
        ]
        for model, t, seed in cases:
            _, report = sample_trials(model, balanced_rows(model), t, 20000, seed=seed)
            # 4-sigma budget keeps this deterministic-seed test robust.
            assert abs(report.estimate - report.exact_prob) < 4 * report.std_error

    def test_random_frame_matches_dense_evolution(self):
        # Branch-by-branch evolution must give the state that the dense
        # joint H gives, for rotated frames and an entangled start.
        rng = np.random.default_rng(53)
        model = random_frame_model(rng, 4, extra_apparatus=2, g=1.4)
        psi0 = haar_state(rng, model.joint_dims)
        _, report = sample_trials(model, branch_rows(model, psi0), 0.8, 20000, seed=8)
        dense = happened_probability(model, evolve(model.interaction_hamiltonian, psi0, 0.8))
        assert abs(report.exact_prob - dense) < 1e-12
        assert abs(report.estimate - report.exact_prob) < 4 * report.std_error

    def test_rejects_zero_trials(self):
        model = build_rotation_model(2, 1.0)
        with pytest.raises(InvalidParameter):
            sample_trials(model, balanced_rows(model), 0.5, 0, seed=1)
        # A count is an integer: not a float, even a whole one, and not a bool.
        for n_trials in (1000.0, True):
            with pytest.raises(InvalidParameter, match="n_trials must be an integer"):
                sample_trials(model, balanced_rows(model), 0.5, n_trials, seed=1)
        _, report = sample_trials(model, balanced_rows(model), 0.5, np.int64(3), seed=1)
        assert report.n_trials == 3

    def test_rejects_negative_seed(self):
        model = build_rotation_model(2, 1.0)
        with pytest.raises(InvalidParameter, match="seed"):
            sample_trials(model, balanced_rows(model), 0.5, 1, seed=-1)
        for seed in (1.5, 2.0, False):
            with pytest.raises(InvalidParameter, match="seed must be an integer"):
                sample_trials(model, balanced_rows(model), 0.5, 1, seed=seed)

    def test_rejects_a_time_that_is_not_real(self):
        # A string time reached the phase product and leaked numpy's UFuncTypeError.
        model = build_rotation_model(2, 1.0)
        for t in ("x", None, True):
            with pytest.raises(InvalidParameter, match="t must be a real number"):
                sample_trials(model, balanced_rows(model), t, 10, seed=1)
        _, report = sample_trials(model, balanced_rows(model), np.float64(0.5), 10, seed=1)
        assert report.t == 0.5

    def test_rejects_state_on_other_space(self):
        # The rows must be (n, d): the joint amplitudes flattened, the rows
        # transposed or cut to fewer apparatus levels are all refused.
        model = build_rotation_model(2, 1.0)
        rows = balanced_rows(model)
        for wrong in (rows.ravel(), rows.T, rows[:, :2]):
            with pytest.raises(DimensionMismatch):
                sample_trials(model, wrong, 0.5, 1, seed=1)


def inverse_cdf_counts(cumulative, n_trials, seed):
    """Reference tally: invert the CDF for each draw, then count the cells."""
    uniforms = np.random.default_rng(seed).random(n_trials)
    cells = np.searchsorted(cumulative, uniforms, side="right")
    np.minimum(cells, cumulative.size - 1, out=cells)
    return np.bincount(cells, minlength=cumulative.size)


class TestTally:
    B = BLOCK_BYTES // 8  # float64 draws per block

    # 2^16 trials fill a whole number of blocks too.
    @pytest.mark.parametrize(
        "n_trials", [1, B - 1, B, B + 1, 2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 7]
    )
    def test_matches_per_trial_inverse_cdf(self, n_trials):
        rng = np.random.default_rng(59)
        imperfect = build_imperfect_model(8, 1.0, 0.1)  # many zero cells
        frame = random_frame_model(rng, 4, extra_apparatus=2)
        cases = [
            (imperfect, balanced_start(imperfect), 0.7),
            (frame, haar_state(rng, frame.joint_dims), 0.8),
        ]
        for seed, (model, psi0, t) in enumerate(cases):
            counts, report = sample_trials(model, branch_rows(model, psi0), t, n_trials, seed)
            psi_t = evolve(model.interaction_hamiltonian, psi0, t)
            dist = joint_distribution(model, branch_rows(model, psi_t))
            cumulative = np.cumsum(dist)
            assert np.array_equal(counts.ravel(), inverse_cdf_counts(cumulative, n_trials, seed))
            assert report.case1_count == np.trace(counts, offset=1)
        # A cumulative ending below 1 sends every draw above it to the last cell.
        short = np.array([0.0, 0.2, 0.2, 0.5])
        assert np.array_equal(_tally(short, n_trials, 3), inverse_cdf_counts(short, n_trials, 3))

    def test_memory_does_not_grow_with_trials(self):
        # One block of draws is alive at a time: ~1.1 blocks traced, where
        # drawing a new array per block held two (2.08 blocks).
        model = build_imperfect_model(8, 1.0, 0.1)
        psi0 = balanced_rows(model)
        sample_trials(model, psi0, 0.5, 1, seed=1)  # build the cached spectra first
        tracemalloc.start()
        try:
            sample_trials(model, psi0, 0.5, 1_000_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * BLOCK_BYTES
