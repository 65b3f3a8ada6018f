import math

import numpy as np
import pytest

from conftest import haar_state, haar_unitary, random_hermitian
from mclock import (
    DimensionMismatch,
    HermitianOperator,
    InvalidParameter,
    NonOrthonormalInput,
    NumericalError,
    StateVector,
    basis_state,
    commutator,
    expectation,
    identity_operator,
    projector_onto,
    spectral,
    tensor_operator,
    tensor_state,
)
from mclock.hilbert import check_unit_norm, expectations

SQ2 = 1 / math.sqrt(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class TestStateVector:
    def test_valid_construction(self):
        psi = StateVector((2, 2), [SQ2, 0, 0, SQ2])
        assert psi.dims == (2, 2)
        assert psi.dim == 4

    def test_rejects_unnormalized(self):
        with pytest.raises(NumericalError):
            StateVector((2,), [1.0, 1.0])

    def test_rejects_nan_norm(self):
        with pytest.raises(NumericalError):
            check_unit_norm(np.array([np.nan, 0.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            StateVector((2, 2), [1.0, 0.0])

    def test_rejects_bad_dims(self):
        with pytest.raises(InvalidParameter):
            StateVector((0,), [])

    def test_amplitudes_frozen(self):
        psi = basis_state(3, 0)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NumericalError):
            HermitianOperator((2,), [[0, 1], [0, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            HermitianOperator((2,), np.zeros((2, 3)))

    def test_identity(self):
        assert np.array_equal(identity_operator((2, 2)).matrix, np.eye(4))


class TestTensorState:
    def test_basis_product(self):
        out = tensor_state(basis_state(2, 0), basis_state(2, 1))
        assert out.dims == (2, 2)
        assert np.array_equal(out.amplitudes, [0, 1, 0, 0])

    def test_hand_kronecker(self):
        # (1/sqrt2)(1,1) (x) (1,0) = (1/sqrt2)(1,0,1,0)
        a = StateVector((2,), [SQ2, SQ2])
        b = basis_state(2, 0)
        assert np.allclose(tensor_state(a, b).amplitudes, [SQ2, 0, SQ2, 0], atol=1e-15)

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            out = tensor_state(haar_state(rng, (3,)), haar_state(rng, (4,)))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


class TestTensorOperator:
    def test_identity_product(self):
        i2 = identity_operator((2,))
        assert np.array_equal(tensor_operator(i2, i2).matrix, np.eye(4))

    def test_hand_kronecker(self):
        out = tensor_operator(HermitianOperator((2,), SZ), identity_operator((2,)))
        assert np.allclose(out.matrix, np.diag([1, 1, -1, -1]), atol=1e-15)

    def test_mixed_product_law(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = HermitianOperator((3,), random_hermitian(rng, 3))
            b = HermitianOperator((2,), random_hermitian(rng, 2))
            psi = haar_state(rng, (3,))
            phi = haar_state(rng, (2,))
            lhs = tensor_operator(a, b).matrix @ np.kron(psi.amplitudes, phi.amplitudes)
            rhs = np.kron(a.matrix @ psi.amplitudes, b.matrix @ phi.amplitudes)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestProjector:
    def test_rank_one(self):
        p = projector_onto([basis_state(2, 0)])
        assert np.array_equal(p.matrix, [[1, 0], [0, 0]])

    def test_completeness(self):
        for d in (2, 3, 5):
            p = projector_onto([basis_state(d, k) for k in range(d)])
            assert np.max(np.abs(p.matrix - np.eye(d))) < 1e-15

    def test_hand_outer_product(self):
        p = projector_onto([StateVector((2, 2), [SQ2, 0, 0, SQ2])])
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        assert np.allclose(p.matrix, expected, atol=1e-15)

    def test_rejects_non_orthonormal(self):
        tilted = StateVector((2,), [SQ2, SQ2])
        with pytest.raises(NonOrthonormalInput):
            projector_onto([basis_state(2, 0), tilted])

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameter):
            projector_onto([])

    def test_idempotent_hermitian_property(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            d = int(rng.integers(2, 17))
            k = int(rng.integers(1, d + 1))
            u = haar_unitary(rng, d)
            p = projector_onto([StateVector((d,), u[:, j]) for j in range(k)]).matrix
            assert np.max(np.abs(p @ p - p)) < 1e-12
            assert np.max(np.abs(p - p.conj().T)) < 1e-12

    def test_projector_expectation_in_unit_interval(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            d = int(rng.integers(2, 13))
            k = int(rng.integers(1, d + 1))
            u = haar_unitary(rng, d)
            p = projector_onto([StateVector((d,), u[:, j]) for j in range(k)])
            val = expectation(p, haar_state(rng, (d,)))
            assert -1e-10 <= val <= 1 + 1e-10


class TestExpectation:
    def test_identity(self):
        rng = np.random.default_rng(31)
        psi = haar_state(rng, (5,))
        assert abs(expectation(identity_operator((5,)), psi) - 1.0) < 1e-12

    def test_eigenstate(self):
        assert expectation(HermitianOperator((2,), SZ), basis_state(2, 0)) == pytest.approx(1.0)

    def test_balanced_superposition(self):
        psi = StateVector((2,), [SQ2, SQ2])
        assert abs(expectation(HermitianOperator((2,), SZ), psi)) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expectation(identity_operator((3,)), basis_state(2, 0))

    def test_nan_imaginary_part_raises(self):
        column = np.array([[1.0], [complex(0.0, np.nan)]])
        with pytest.raises(NumericalError):
            expectations(HermitianOperator((2,), SZ), column)


class TestCommutator:
    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(37)
        a = HermitianOperator((4,), random_hermitian(rng, 4))
        assert np.max(np.abs(commutator(a, a))) == 0.0

    def test_identity_commutes(self):
        rng = np.random.default_rng(41)
        a = HermitianOperator((4,), random_hermitian(rng, 4))
        assert np.max(np.abs(commutator(a, identity_operator((4,))))) == 0.0

    def test_pauli_algebra(self):
        lhs = commutator(HermitianOperator((2,), SX), HermitianOperator((2,), SY))
        assert np.allclose(lhs, 2j * SZ, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            commutator(identity_operator((2,)), identity_operator((3,)))


class TestSpectral:
    def test_diagonal_input_sorted(self):
        dec = spectral(HermitianOperator((3,), np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)

    def test_pauli_x(self):
        dec = spectral(HermitianOperator((2,), SX))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_up_to_dim_64(self):
        rng = np.random.default_rng(43)
        for d in (2, 8, 31, 64):
            mat = random_hermitian(rng, d, scale=5.0)
            dec = spectral(HermitianOperator((d,), mat))
            recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
            assert np.max(np.abs(recon - mat)) < 1e-10
