import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    basis_state,
    fields,
    haar_state,
    haar_unitary,
    random_hermitian,
    tensor_state,
)
from mclock import (
    DimensionMismatch,
    EigensolverFailure,
    HermitianOperator,
    InvalidParameter,
    MeasurementModel,
    NumericalError,
    SchmidtDecomposition,
    StateVector,
    TimeGrid,
    TimingTrajectory,
    build_imperfect_model,
    build_rotation_model,
    expectation,
    spectral,
)
from mclock.operational import EstimateReport, sample_trials
from mclock.scenario_io import SamplingSpec, ScenarioSpec, _LongInt
from mclock.hilbert import (
    BLOCK_BYTES,
    SpectralDecomposition,
    check_hermitian,
    check_orthonormal,
    check_unit_norm,
    expectations,
)
from mclock.tolerances import TOL, Tolerances

SQ2 = 1 / math.sqrt(2)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class TestStateVector:
    def test_valid_construction(self):
        psi = StateVector((2, 2), [SQ2, 0, 0, SQ2])
        assert psi.dims == (2, 2)
        assert psi.amplitudes.shape == (4,)

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
        with pytest.raises(NumericalError):
            HermitianOperator((2,), [[0, 1e9], [0, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            HermitianOperator((2,), np.zeros((2, 3)))

    def test_rejects_nan_entry(self):
        with pytest.raises(NumericalError):
            HermitianOperator((2,), [[np.nan, 0], [0, 0]])

    def test_keeps_a_frozen_owned_complex_array(self):
        arr = np.array(SZ)
        arr.setflags(write=False)
        assert HermitianOperator((2,), arr).matrix is arr

    def test_copies_a_writable_array(self):
        arr = np.array(SZ)
        op = HermitianOperator((2,), arr)
        arr[0, 0] = 5.0
        assert np.array_equal(op.matrix, SZ)

    def test_copies_a_read_only_view_of_a_writable_base(self):
        base = np.zeros((3, 3), dtype=complex)
        view = base[:2, :2]
        view.setflags(write=False)
        op = HermitianOperator((2,), view)
        assert op.matrix is not view
        base[0, 0] = 5.0
        assert op.matrix[0, 0] == 0


def one_shot_hermitian_message(matrices):
    """The message of the whole-matrix judgement the blocked check must reproduce."""
    dev = np.ravel(np.max(np.abs(matrices - matrices.conj().swapaxes(-1, -2)), axis=(-2, -1)))
    tol = TOL.hermiticity * np.maximum(1.0, np.ravel(np.max(np.abs(matrices), axis=(-2, -1))))
    k = int(np.argmax(dev / tol))
    return f"matrix deviates from self-adjointness by {dev[k]:.3e} (> {tol[k]:.3e})"


class TestCheckHermitian:
    D = 300

    # The pair (i, j), i < j, is judged once, in the block of row i against
    # column i's conjugate. One bad entry has both indices in the last block,
    # one its row in the last block and its column in the first.
    @pytest.mark.parametrize(
        "row, col, value",
        [(D - 1, D - 2, 3e-9), (D - 1, 0, 3e-9), (D // 2, D // 2 + 1, np.nan)],
        ids=["asymmetric-last-block", "asymmetric-last-and-first-block", "nan-middle-block"],
    )
    def test_matches_the_whole_matrix_formula(self, row, col, value):
        a = random_hermitian(np.random.default_rng(37), self.D, scale=4.0)
        assert self.D > 2 * (BLOCK_BYTES // a[0].nbytes)  # at least three row blocks
        check_hermitian(a)
        a[row, col] += value
        with pytest.raises(NumericalError) as info:
            check_hermitian(a)
        assert str(info.value) == one_shot_hermitian_message(a)

    def test_names_the_one_bad_matrix_of_a_stack(self):
        rng = np.random.default_rng(41)
        d = self.D // 5
        scales = (20.0, 180.0, 10.0, 60.0, 40.0)  # max|A| about scale / 10
        stack = np.stack([random_hermitian(rng, d, scale=s) for s in scales])
        stack[1, 0, 1] += 1e-11  # inside its own tolerance 1e-12 x max|A|
        check_hermitian(stack)
        stack[3, d - 1, d - 2] += 5e-10
        with pytest.raises(NumericalError) as info:
            check_hermitian(stack)
        assert str(info.value) == one_shot_hermitian_message(stack)
        assert f"(> {TOL.hermiticity * np.max(np.abs(stack[3])):.3e})" in str(info.value)


def _scalar_entries():
    """Each library entry's one scalar field, as a call of the value and a field name."""
    model = build_rotation_model(2, 1.0)
    rows = np.zeros((2, 3), dtype=complex)
    rows[:, 0] = SQ2
    return {
        "g": lambda x: build_imperfect_model(2, x, 0.1),
        "epsilon": lambda x: build_imperfect_model(2, 1.0, x),
        "t_start": lambda x: TimeGrid(x, 1.0, 5),
        "t_end": lambda x: TimeGrid(0.0, x, 5),
        "t": lambda x: sample_trials(model, rows, x, 10, 1),
        "n": lambda x: build_imperfect_model(x, 1.0, 0.1),
        "n_points": lambda x: TimeGrid(0.0, 1.0, x),
        "n_trials": lambda x: sample_trials(model, rows, 0.5, x, 1),
    }


# An int beyond the float range has no float; one beyond intp cannot size an array.
BEYOND_FLOAT = st.integers(2**1024, 10**400) | st.integers(-(10**400), -(2**1024))
BEYOND_INTP = st.integers(2**63, 10**400) | st.integers(-(10**400), -(2**63))
REALS = ("g", "epsilon", "t_start", "t_end", "t")


class TestScalarRule:
    """Every library entry refuses a scalar it cannot compute with, naming its field."""

    @pytest.mark.parametrize("field, value", [("g", 10**400), ("t_end", 10**400), ("n", 10**20),
                                              ("n_trials", 10**5000), ("n", -(10**5000))],
                             ids=["g", "t_end", "n", "n_trials-5001-digits", "n-5001-digits"])
    def test_refuses_the_overflowing_cases(self, field, value):
        # The first three leaked OverflowError, OverflowError and numpy's
        # ValueError; the message names no value that has no str (> 4300 digits).
        with pytest.raises(InvalidParameter, match=f"^{field} must be"):
            _scalar_entries()[field](value)

    @pytest.mark.parametrize("field", list(_scalar_entries()))
    @settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @given(data=st.data())
    def test_refuses_any_value_out_of_range(self, field, data):
        value = data.draw(BEYOND_FLOAT if field in REALS else BEYOND_INTP)
        with pytest.raises(InvalidParameter, match=f"^{field} must be"):
            _scalar_entries()[field](value)

    def test_an_int_time_beyond_uint64_is_its_float(self):
        # np.array([10**20]) is an object array, which leaked TypeError.
        call = _scalar_entries()["t"]
        counts, report = call(10**20)
        assert np.array_equal(counts, call(1e20)[0]) and report == call(1e20)[1]
        assert report.t == 1e20 and type(report.t) is float


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


class TestProjector:
    def test_gram_check_rejects_nan_column(self):
        with pytest.raises(NumericalError):
            check_orthonormal(np.array([[np.nan], [0.0]]), NumericalError, "columns")

    def test_projector_expectation_in_unit_interval(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            d = int(rng.integers(2, 13))
            k = int(rng.integers(1, d + 1))
            u = haar_unitary(rng, d)[:, :k]
            p = HermitianOperator((d,), u @ u.conj().T)
            val = expectation(p, haar_state(rng, (d,)))
            assert -1e-10 <= val <= 1 + 1e-10


class TestExpectation:
    def test_identity(self):
        rng = np.random.default_rng(31)
        psi = haar_state(rng, (5,))
        assert abs(expectation(HermitianOperator((5,), np.eye(5)), psi) - 1.0) < 1e-12

    def test_eigenstate(self):
        assert expectation(HermitianOperator((2,), SZ), basis_state(2, 0)) == pytest.approx(1.0)

    def test_balanced_superposition(self):
        psi = StateVector((2,), [SQ2, SQ2])
        assert abs(expectation(HermitianOperator((2,), SZ), psi)) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expectation(HermitianOperator((3,), np.eye(3)), basis_state(2, 0))
        with pytest.raises(DimensionMismatch):
            expectations(SZ, np.ones((3, 1)))

    def test_large_operator_imaginary_part_is_relative(self):
        # Rounding leaves an imaginary part of 2.9e-10 at max|A| = 2.8e6;
        # relative to the operator's scale it is far inside tolerance.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        a = HermitianOperator((30,), (x + x.conj().T) / 2 * 1e6)
        psi = haar_state(rng, (30,))
        exact = np.vdot(psi.amplitudes, a.matrix @ psi.amplitudes).real
        assert abs(expectation(a, psi) - exact) <= 1e-12 * abs(exact)

    def test_no_columns_give_no_values(self):
        assert expectations(np.eye(2), np.ones((2, 0))).shape == (0,)
        assert expectations(np.stack([SZ, SZ]), np.ones((2, 2, 0))).shape == (2, 0)

    def test_nan_imaginary_part_raises(self):
        column = np.array([[1.0], [complex(0.0, np.nan)]])
        with pytest.raises(NumericalError):
            expectations(SZ, column)


class TestSpectral:
    def test_diagonal_input_sorted(self):
        dec = spectral(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)

    def test_pauli_x(self):
        dec = spectral(SX)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_up_to_dim_64(self):
        rng = np.random.default_rng(43)
        for d in (2, 8, 31, 64):
            mat = random_hermitian(rng, d, scale=5.0)
            dec = spectral(mat)
            recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
            assert np.max(np.abs(recon - mat)) < 1e-10

    def test_rejects_nan_eigenvalue(self):
        with pytest.raises(NumericalError):
            SpectralDecomposition(np.array([np.nan, 0.0]), np.eye(2))

    def test_rejects_mismatched_shapes(self):
        for w, v in (([0.0, 1.0], np.eye(3)), (0.0, np.eye(1)), ([[0.0, 1.0]], np.eye(2))):
            with pytest.raises(DimensionMismatch):
                SpectralDecomposition(np.array(w), v)

    def test_rejects_nan_reconstruction(self):
        # Finite and Hermitian, but its eigenvalue 2e308 overflows to inf and
        # the reconstruction (inf * 0 in a complex product) is NaN; in a
        # stack, that one matrix fails the whole decomposition.
        huge = np.full((2, 2), 1e308)
        for a in (huge, np.stack([SX, huge])):
            with pytest.raises(EigensolverFailure), np.errstate(all="ignore"):
                spectral(a)

    def test_non_convergence_is_an_eigensolver_failure(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(EigensolverFailure) as info:
            spectral(SX)
        assert str(info.value) == "eigensolver did not converge: Eigenvalues did not converge"

    def test_stack_matches_each_matrix(self):
        # One eigh call on a stack gives each matrix's own decomposition.
        rng = np.random.default_rng(44)
        stack = np.stack([random_hermitian(rng, 5, scale=s) for s in (1.0, 3.0, 1e6)])
        dec = spectral(stack)
        assert dec.eigenvalues.shape == (3, 5) and dec.eigenvectors.shape == (3, 5, 5)
        for k, mat in enumerate(stack):
            single = spectral(mat)
            assert np.array_equal(dec.eigenvalues[k], single.eigenvalues)
            assert np.array_equal(dec.eigenvectors[k], single.eigenvectors)


class TestTolerances:
    def test_fields_are_read_only(self):
        names = list(Tolerances.__annotations__)
        assert "norm" in names and "derivative_check" in names
        for name in names:
            with pytest.raises(AttributeError):
                setattr(TOL, name, getattr(TOL, name))
        with pytest.raises(AttributeError):
            TOL.unknown = 1.0


def _model_fields():
    model = build_rotation_model(2, 1.0)
    return tuple(getattr(model, name) for name in fields(MeasurementModel))


GRID = TimeGrid(0.0, 1.0, 3)
SAMPLING = SamplingSpec(0.5, 10, 1)
# (class, a factory of valid positional fields, compared by value)
RECORDS = [
    (TimeGrid, lambda: (0.0, 1.0, 3), True),
    (TimingTrajectory, lambda: (GRID, [0.0, 0.5, 1.0], [1.0, 1.0, 1.0]), False),
    (StateVector, lambda: ((2,), [1.0, 0.0]), False),
    (HermitianOperator, lambda: ((2,), SZ), False),
    (SpectralDecomposition, lambda: ([-1.0, 1.0], np.eye(2)), False),
    (MeasurementModel, _model_fields, False),
    (SchmidtDecomposition, lambda: ([1.0], [[1.0, 0.0]], [[0.0, 1.0]]), False),
    (SamplingSpec, lambda: (0.5, 10, 1), True),
    (ScenarioSpec, lambda: (2, 1.0, 0.0, (1 + 0j, 0j), GRID, SAMPLING), True),
    (_LongInt, lambda: (5000,), True),
    (EstimateReport, lambda: (0.5, 10, 5, 0.5, 0.15811388300841897, 0.5), True),
]


@pytest.mark.parametrize("cls, make_fields, by_value", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(monkeypatch, cls, make_fields, by_value):
    """Construction runs the class's ``__post_init__``, patched or not; fields are read-only;
    value records compare and hash by their fields, array records by identity; a pickled
    record is rebuilt through the constructor."""
    values, names, calls = make_fields(), fields(cls), []
    post_init = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda obj: (calls.append(obj), post_init(obj)))
    a = cls(*values)
    b = cls(**dict(zip(names, values)))
    assert calls == [a, b]
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == a
    assert a.__eq__(values) is NotImplemented and a != values  # another type
    if by_value:
        assert a == b and hash(a) == hash(b)
    else:
        assert a != b
    with pytest.raises(TypeError):
        cls(*values, values[0])
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is cls and repr(copy) == repr(a) and calls[-1] is copy
