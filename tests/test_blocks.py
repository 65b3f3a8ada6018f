"""Each H_i is stored and diagonalised on its block C_i; the dense oracle must agree.

Every model here starts from a Haar-random joint state, so chi_i has entries
off C_i, which the evolution must leave as they are. The oracle propagates
the state under the joint H assembled with np.kron from the dense stack the
case wrote by hand, by the power series in ``conftest``.
"""

import math

import numpy as np
import pytest

import mclock.operational as operational
from conftest import (
    branch_rows,
    evolve_series,
    haar_state,
    haar_unitary,
    replace,
    whole_space_model,
)
from mclock import (
    EigensolverFailure,
    MeasurementModel,
    NumericalError,
    TimeGrid,
    build_imperfect_model,
    joint_distribution,
    sample_trials,
    trajectory,
)


def dense_random_frame():
    """H_i = i g (|o_i><ready| - h.c.) in Haar frames, each on the block of every coordinate."""
    rng = np.random.default_rng(71)
    n, d, g = 3, 6, 1.2
    frame = haar_unitary(rng, d)[:, : n + 1]
    kick = frame[:, 1:].T[:, :, None] * frame[:, 0].conj()
    h = 1j * g * (kick - kick.conj().transpose(0, 2, 1))
    return h, whole_space_model(haar_unitary(rng, n), frame, h, math.pi / 2, 0.0)


def two_disjoint_pairs():
    """Branch i couples ready to pointer i; branches 0 and 1 also couple level 6 to 4 and 5.

    The blocks are written on C_0 = {0, 1, 4, 6} and C_1 = {0, 2, 5, 6}, and
    C_2 = {0, 3} is padded to 4 with levels 1 and 2; the dense stack is
    written separately, as the oracle's joint H reads it.
    """
    n, d = 3, 7
    h = np.zeros((n, d, d), dtype=complex)
    blocks = np.zeros((n, 4, 4), dtype=complex)
    for i, g in enumerate((0.9, 1.1, 1.3)):
        h[i, i + 1, 0], h[i, 0, i + 1] = 1j * g, -1j * g
        blocks[i, 1, 0], blocks[i, 0, 1] = 1j * g, -1j * g
    h[0, 4, 6] = h[0, 6, 4] = blocks[0, 2, 3] = blocks[0, 3, 2] = 0.8
    h[1, 5, 6], h[1, 6, 5] = blocks[1, 2, 3], blocks[1, 3, 2] = 0.5j, -0.5j
    index = [[0, 1, 4, 6], [0, 2, 5, 6], [0, 3, 1, 2]]
    return h, MeasurementModel(np.eye(n), np.eye(d)[:, : n + 1], index, blocks, math.pi / 2, 0.0)


def canonical():
    """The imperfect model's dense stack, written as its builder describes it, and the model."""
    n, g, eps = 4, 1.0, 0.1
    h = np.zeros((n, n + 1, n + 1), dtype=complex)
    for i in range(n):
        c = g * (1 - eps) if i == 0 else g
        h[i, i + 1, 0], h[i, 0, i + 1] = 1j * c, -1j * c
    return h, build_imperfect_model(n, g, eps)


CASES = {"dense": dense_random_frame, "two-pairs": two_disjoint_pairs, "canonical": canonical}


def _model(case):
    h, model = CASES[case]()
    assert np.array_equal(model.branch_hamiltonians, h)
    a = model.system_frame
    return model, sum(np.kron(np.outer(a_i, a_i.conj()), h_i) for a_i, h_i in zip(a.T, h))


@pytest.mark.parametrize("case", CASES)
def test_block_path_matches_series_oracle(case, monkeypatch):
    model, joint = _model(case)
    psi0 = haar_state(np.random.default_rng(72), model.joint_dims)
    pairs = np.column_stack([
        np.kron(a, o) for a, o in zip(model.system_frame.T, model.pointer_frame.T[1:])
    ])
    m = pairs @ pairs.conj().T
    r = 1j * (joint @ m - m @ joint)
    grid = TimeGrid(0.0, 2.5, 11)
    traj = trajectory(model, branch_rows(model, psi0), grid)
    for k, t in enumerate(grid.times):
        psi_t = evolve_series(joint, psi0.amplitudes, t)
        assert abs(traj.prob_happened[k] - np.vdot(psi_t, m @ psi_t).real) < 1e-12
        assert abs(traj.rate[k] - np.vdot(psi_t, r @ psi_t).real) < 1e-12

    # sample_trials scatters each evolved block into chi_i, unchanged off C_i.
    seen = []

    def spy(model, rows):
        seen.append((rows, joint_distribution(model, rows)))
        return seen[-1][1]

    monkeypatch.setattr(operational, "joint_distribution", spy)
    t = 0.9
    psi_t = evolve_series(joint, psi0.amplitudes, t)
    expected = model.system_frame.conj().T @ psi_t.reshape(model.joint_dims)
    _, report = sample_trials(model, branch_rows(model, psi0), t, 100, seed=3)
    [(rows, dist)] = seen
    assert np.max(np.abs(rows - expected)) < 1e-12
    assert np.max(np.abs(dist - joint_distribution(model, expected))) < 1e-12
    assert abs(report.exact_prob - np.vdot(psi_t, m @ psi_t).real) < 1e-12


@pytest.mark.parametrize("branch, row, col",
                         [(1, 0, 2), (1, 2, 0), (1, 3, 4), (2, 4, 0), (0, 4, 4)])
def test_asymmetric_entry_anywhere_fails_construction(branch, row, col):
    # On or off the canonical couplings, an entry of a dense H_i not matched
    # by its transpose conjugated fails the block's check.
    h, model = canonical()
    h[branch, row, col] += 1e-6j
    with pytest.raises(NumericalError, match="self-adjoint"):
        replace(model, branch_hamiltonians=h)


def shift_levels(w, v):
    return w + 1e-6, v


def stretch_null_vector(w, v):
    """Stretch an eigenvector of branch 2's padded block for eigenvalue 0: H_2 does not read it."""
    v = v.copy()
    v[2, :, np.argmin(np.abs(w[2]))] *= 1 + 1e-6
    return w, v


@pytest.mark.parametrize("corrupt, error, match", [
    (shift_levels, EigensolverFailure, "spectral reconstruction"),
    (stretch_null_vector, NumericalError, "eigenvector matrix not orthonormal"),
])
def test_corrupted_block_spectra_fail(corrupt, error, match, monkeypatch):
    # The model's one eigh, on the stack of blocks, is judged by the spectral
    # residual and by the eigenvectors' Gram matrix.
    eigh = np.linalg.eigh
    calls = []

    def corrupted_eigh(matrices):
        calls.append(matrices.shape)
        return corrupt(*eigh(matrices))

    model, _ = _model("two-pairs")
    monkeypatch.setattr(np.linalg, "eigh", corrupted_eigh)
    with pytest.raises(error, match=match):
        model.branch_spectra
    assert calls == [(3, 4, 4)]
