import math

import numpy as np
import pytest

from conftest import haar_state, random_frame_model
from mclock import (
    InvalidParameter,
    StateVector,
    build_imperfect_model,
    build_rotation_model,
    evolve,
    happened_probability,
    joint_distribution,
    sample_trials,
    tensor_state,
)

SQ2 = 1 / math.sqrt(2)


def balanced_start(model):
    amps = np.full(model.system_dim, 1 / math.sqrt(model.system_dim), dtype=complex)
    return tensor_state(StateVector((model.system_dim,), amps), model.pointer_ready)


class TestJointDistribution:
    def test_ready_state_all_mass_on_ready_pointer(self):
        model = build_rotation_model(2, 1.0)
        dist = joint_distribution(model, balanced_start(model))
        ready_mass = dist.probabilities[:, 0].sum()
        assert ready_mass == pytest.approx(1.0, abs=1e-12)
        assert dist.matched_probability() == pytest.approx(0.0, abs=1e-12)

    def test_correlated_state_fully_matched(self):
        model = build_rotation_model(2, 1.0)
        psi_t = evolve(model.interaction_hamiltonian, balanced_start(model),
                       model.nominal_duration)
        dist = joint_distribution(model, psi_t)
        assert dist.probabilities[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert dist.probabilities[1, 2] == pytest.approx(0.5, abs=1e-12)
        assert dist.matched_probability() == pytest.approx(1.0, abs=1e-12)

    def test_half_way_point(self):
        model = build_rotation_model(2, 1.0)
        psi = evolve(model.interaction_hamiltonian, balanced_start(model), math.pi / 4)
        dist = joint_distribution(model, psi)
        assert dist.matched_probability() == pytest.approx(0.5, abs=1e-12)

    def test_matched_mass_equals_projector_expectation(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            model = random_frame_model(rng, n, extra_apparatus=int(rng.integers(0, 3)))
            psi = haar_state(rng, model.joint_dims)
            dist = joint_distribution(model, psi)
            total = dist.probabilities.sum()
            assert abs(total - 1.0) < 1e-10
            assert abs(
                dist.matched_probability() - happened_probability(model, psi)
            ) < 1e-10

    def test_residual_bucket_collects_leakage(self):
        rng = np.random.default_rng(47)
        model = random_frame_model(rng, 2, extra_apparatus=2)
        psi = haar_state(rng, model.joint_dims)
        dist = joint_distribution(model, psi)
        residual = dist.probabilities[:, 3].sum()
        assert residual > 1e-3  # a Haar state leaks outside the pointer frame


class TestSampleTrials:
    def test_concentrated_distribution_is_always_case1(self):
        model = build_rotation_model(2, 1.0)
        pair = tensor_state(model.system_eigenstates[0], model.pointer_states[0])
        records, report = sample_trials(model, pair, 0.0, 1, seed=1)
        assert report.case1_count == 1
        assert records[0]["case1"] and records[0]["q_outcome"] == 0

    def test_single_trial_estimate_is_zero_or_one(self):
        model = build_rotation_model(2, 1.0)
        _, report = sample_trials(model, balanced_start(model), math.pi / 4, 1, seed=5)
        assert report.estimate in (0.0, 1.0)

    def test_seed_determinism(self):
        model = build_rotation_model(2, 1.0)
        first = sample_trials(model, balanced_start(model), 0.9, 500, seed=123)
        second = sample_trials(model, balanced_start(model), 0.9, 500, seed=123)
        assert np.array_equal(first[0], second[0])
        assert first[1] == second[1]

    def test_different_seeds_differ(self):
        model = build_rotation_model(2, 1.0)
        first = sample_trials(model, balanced_start(model), 0.9, 500, seed=1)
        second = sample_trials(model, balanced_start(model), 0.9, 500, seed=2)
        assert not np.array_equal(first[0], second[0])

    def test_estimator_consistency_matrix(self):
        cases = [
            (build_rotation_model(2, 1.0), 0.3, 11),
            (build_rotation_model(3, 1.0), math.pi / 4, 12),
            (build_rotation_model(2, 2.0), 0.5, 13),
            (build_imperfect_model(2, 1.0, 0.2), 1.2, 14),
        ]
        for model, t, seed in cases:
            _, report = sample_trials(model, balanced_start(model), t, 20000, seed=seed)
            # 4-sigma budget keeps this deterministic-seed test robust.
            assert abs(report.estimate - report.exact_prob) < 4 * report.std_error

    def test_random_frame_matches_dense_evolution(self):
        # Branch-by-branch evolution must give the state that the dense
        # joint H gives, for rotated frames and an entangled start.
        rng = np.random.default_rng(53)
        model = random_frame_model(rng, 4, extra_apparatus=2, g=1.4)
        psi0 = haar_state(rng, model.joint_dims)
        _, report = sample_trials(model, psi0, 0.8, 20000, seed=8)
        dense = happened_probability(model, evolve(model.interaction_hamiltonian, psi0, 0.8))
        assert abs(report.exact_prob - dense) < 1e-12
        assert abs(report.estimate - report.exact_prob) < 4 * report.std_error

    def test_rejects_zero_trials(self):
        model = build_rotation_model(2, 1.0)
        with pytest.raises(InvalidParameter):
            sample_trials(model, balanced_start(model), 0.5, 0, seed=1)
