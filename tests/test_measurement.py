import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    basis_state,
    branch_rows,
    evolve_series,
    fields,
    haar_state,
    haar_unitary,
    happened_probability,
    random_frame_model,
    random_hermitian,
    ready_state,
    replace,
    tensor_state,
    whole_space_model,
)
import mclock.measurement as measurement
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
    build_imperfect_model,
    build_rotation_model,
    evolve,
    expectation,
    happened_projector,
    premeasurement_check,
    rate_operator,
    schmidt_decompose,
    trajectory,
)
from mclock.hilbert import check_hermitian, expectations
from mclock.scenario_io import MAX_OUTCOMES
from mclock.tolerances import TOL

SQ2 = 1 / math.sqrt(2)


def balanced_initial_state(model):
    amps = np.full(model.system_dim, 1 / math.sqrt(model.system_dim), dtype=complex)
    return tensor_state(StateVector((model.system_dim,), amps), ready_state(model))


class TestRotationModel:
    def test_rejects_bad_parameters(self):
        # n <= 0 would index an empty coupling array; n = 1 also fails the constructor.
        for n in (1, 0, -1):
            with pytest.raises(InvalidParameter, match="n must be at least 2"):
                build_rotation_model(n, 1.0)
        with pytest.raises(InvalidParameter):
            build_rotation_model(2, 0.0)
        # n counts outcomes: a float, a string or a bool is refused, as numpy integers are not.
        for n in (2.0, 2.5, "3", True):
            with pytest.raises(InvalidParameter, match="n must be an integer"):
                build_rotation_model(n, 1.0)
            with pytest.raises(InvalidParameter, match="n must be an integer"):
                build_imperfect_model(n, 1.0, 0.1)
        assert build_rotation_model(np.int64(3), 1.0).n_outcomes == 3
        # g and epsilon are real numbers: a string or a bool is named, not compared.
        for value in ("1", True, None, 1j):
            with pytest.raises(InvalidParameter, match="g must be a real number"):
                build_rotation_model(2, value)
            with pytest.raises(InvalidParameter, match="g must be a real number"):
                build_imperfect_model(2, value, 0.1)
            with pytest.raises(InvalidParameter, match="epsilon must be a real number"):
                build_imperfect_model(2, 1.0, value)
        assert build_imperfect_model(2, np.float64(1.0), 0).fidelity == 1.0

    def test_rejects_coupling_without_finite_duration(self):
        # pi/(2g) is inf at g = 5e-324 and 0 at g = 1e308.
        for g in (5e-324, 1e308):
            with pytest.raises(InvalidParameter, match="nominal duration"):
                build_rotation_model(2, g)
            with pytest.raises(InvalidParameter, match="nominal duration"):
                build_imperfect_model(2, g, 0.1)

    def test_nominal_duration(self):
        assert build_rotation_model(3, 2.0).nominal_duration == pytest.approx(math.pi / 4)

    def test_branch_evolves_to_matched_pair(self):
        model = build_rotation_model(2, 1.0)
        start = tensor_state(basis_state(2, 0), ready_state(model))
        target = tensor_state(basis_state(2, 0), basis_state(3, 1))
        out = evolve(model.interaction_hamiltonian, start, math.pi / 2)
        assert np.max(np.abs(out.amplitudes - target.amplitudes)) < 1e-10

    def test_closed_form_curve_against_series_oracle(self):
        # Three routes must agree: spectral evolution, the power-series
        # oracle, and the closed form sin^2(t).
        model = build_rotation_model(2, 1.0)
        h = model.interaction_hamiltonian
        psi0 = balanced_initial_state(model)
        m_op = happened_projector(model)
        for t in (0.0, 0.3, math.pi / 4, 1.1, math.pi / 2):
            via_spectral = happened_probability(model, evolve(h, psi0, t))
            oracle_amps = evolve_series(h.matrix, psi0.amplitudes, t)
            via_series = float(
                np.real(np.vdot(oracle_amps, m_op.matrix @ oracle_amps))
            )
            assert abs(via_spectral - math.sin(t) ** 2) < 1e-9
            assert abs(via_series - math.sin(t) ** 2) < 1e-12

    def test_probability_curve_monotone(self):
        model = build_rotation_model(2, 1.0)
        grid = TimeGrid(0.0, model.nominal_duration, 201)
        traj = trajectory(model, branch_rows(model, balanced_initial_state(model)), grid)
        assert np.all(np.diff(traj.prob_happened) >= -1e-12)

    def test_curve_independent_of_initial_coefficients(self):
        model = build_rotation_model(3, 1.3)
        grid = TimeGrid(0.0, model.nominal_duration, 51)
        rng = np.random.default_rng(13)
        reference = None
        for _ in range(4):
            coeffs = haar_state(rng, (3,))
            psi0 = tensor_state(coeffs, ready_state(model))
            curve = trajectory(model, branch_rows(model, psi0), grid).prob_happened
            if reference is None:
                reference = curve
            else:
                assert np.max(np.abs(curve - reference)) < 1e-10


class TestInteractionHamiltonian:
    def test_matches_kron_sum(self):
        # The dense H the model materialises equals sum_i |a_i><a_i| (x) H_i
        # built one Kronecker product at a time.
        rng = np.random.default_rng(7)
        for model in (build_imperfect_model(5, 1.3, 0.2),
                      random_frame_model(rng, 4, extra_apparatus=2, g=0.7)):
            expected = sum(
                np.kron(np.outer(a, a.conj()), h_i)
                for a, h_i in zip(model.system_frame.T, model.branch_hamiltonians)
            )
            h = model.interaction_hamiltonian
            assert h.dims == model.joint_dims
            assert np.max(np.abs(h.matrix - expected)) < 1e-15
            assert model.interaction_hamiltonian is h

    def test_rejects_branch_on_wrong_space(self):
        model = build_rotation_model(2, 1.0)
        with pytest.raises(DimensionMismatch):
            replace(model, branch_hamiltonians=np.zeros((2, 4, 4)))
        with pytest.raises(DimensionMismatch):
            replace(model, branch_hamiltonians=model.branch_hamiltonians[:1])


class TestModelContract:
    """The model is four arrays, each checked once for shape, orthonormality or Hermiticity."""

    def test_fields_are_the_arrays(self):
        names = fields(MeasurementModel)
        assert names == [
            "system_frame", "pointer_frame", "block_index", "branch_blocks", "nominal_duration",
            "fidelity",
        ]
        model = build_imperfect_model(3, 1.0, 0.1)
        assert (model.n_outcomes, model.system_dim, model.apparatus_dim) == (3, 3, 4)
        assert model.block_index.tolist() == [[0, 1], [0, 2], [0, 3]]
        assert model.branch_blocks.shape == (3, 2, 2)
        assert model.branch_hamiltonians.shape == (3, 4, 4)
        assert np.array_equal(model.pointer_frame[:, 0], [1, 0, 0, 0])
        for frozen in (model.block_index, model.branch_blocks, model.branch_hamiltonians):
            with pytest.raises(ValueError):
                frozen[0, 0] = 1

    def test_rejects_misshapen_frames(self):
        # Misshapen H_i stacks are tested in TestInteractionHamiltonian.
        model = build_rotation_model(2, 1.0)
        for change in ({"system_frame": np.eye(2, 3)}, {"pointer_frame": np.eye(3)[:, :2]}):
            with pytest.raises((DimensionMismatch, InvalidParameter)):
                replace(model, **change)
        # Consistent shapes, but one outcome: nothing to measure.
        with pytest.raises(InvalidParameter, match="at least 2 outcomes"):
            whole_space_model(np.eye(1), np.eye(2), np.zeros((1, 2, 2)), 1.0, 1.0)

    def test_rejects_block_index_that_is_not_a_set_of_coordinates(self):
        # Branch i's block rows are distinct apparatus coordinates in [0, d)
        # holding every nonzero entry of |ready> and pointer i.
        model = build_rotation_model(2, 1.0)
        for index, error, match in (
            ([[0, 1]], DimensionMismatch, "block index"),
            ([[0, 1], [0, 3]], DimensionMismatch, "outside"),
            ([[0, 1], [2, 2]], DimensionMismatch, "block index coordinates not orthonormal"),
            ([[0, 1], [2, -1]], DimensionMismatch, "outside"),
            ([[0, 1], [1, 2]], InvalidParameter, "off the block"),
            ([[0, 1], [0, 1]], InvalidParameter, "off the block"),
        ):
            with pytest.raises(error, match=match):
                replace(model, block_index=index)
        # No coordinates at all, or coordinates that are not integers.
        for index, blocks in ((np.zeros((2, 0), dtype=np.intp), np.zeros((2, 0, 0))),
                              ([[0, 1.0], [0, 2.0]], model.branch_blocks)):
            with pytest.raises(DimensionMismatch, match="block index"):
                replace(model, block_index=index, branch_blocks=blocks)
        # A negative coordinate does not wrap: -1 is outside, not the last one.
        with pytest.raises(DimensionMismatch, match="outside"):
            replace(model, block_index=[[0, 1], [0, -1]])
        # An unsigned coordinate does not wrap: 2^64 - 1 is outside, not the last one.
        for dtype in (np.uint8, np.uint64):
            unsigned = replace(model, block_index=np.array([[0, 1], [0, 2]], dtype=dtype))
            assert np.array_equal(unsigned.block_index, model.block_index)
            assert unsigned.block_index.dtype == np.intp
        for big in (3, 2**63, 2**64 - 1):
            with pytest.raises(DimensionMismatch, match="outside"):
                replace(model, block_index=np.array([[0, 1], [0, big]], dtype=np.uint64))

    def test_rejects_non_orthonormal_frames(self):
        model = build_rotation_model(2, 1.0)
        with pytest.raises(NumericalError, match="system frame"):
            replace(model, system_frame=[[1, 0], [1, 1]])
        with pytest.raises(NumericalError, match="pointer frame"):
            replace(model, pointer_frame=np.full((3, 3), 1 / math.sqrt(3)))

    def test_rejects_bad_second_branch(self):
        model = build_rotation_model(2, 1.0)
        for entry in (1e-6j, np.nan):  # a Hermitian diagonal is real
            h = model.branch_hamiltonians.copy()
            h[1, 0, 0] = entry
            with pytest.raises(NumericalError):
                replace(model, branch_hamiltonians=h)

    def test_rejects_duration_that_is_not_finite_and_positive(self):
        # An infinite duration would reach premeasurement_check as a NaN phase.
        model = build_rotation_model(2, 1.0)
        for duration in (math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(InvalidParameter, match="nominal_duration"):
                replace(model, nominal_duration=duration)

    def test_rejects_declared_fidelity_outside_unit_interval(self):
        model = build_rotation_model(2, 1.0)
        for fidelity in (-0.1, 1.0 + 2 * TOL.probability, math.nan):
            with pytest.raises(InvalidParameter, match="declared fidelity"):
                replace(model, fidelity=fidelity)
        assert replace(model, fidelity=1.0 + TOL.probability).fidelity == 1.0 + TOL.probability

    def test_hermiticity_tolerance_is_per_branch(self):
        # H_2 = 1e6 H_1 built as U diag(w) U^H carries rounding asymmetry
        # ~1e-10, far above an absolute 1e-12 but within 1e-12 x max|H_2|.
        # The same asymmetry on the unit-sized H_1 is rejected, so the scale
        # is each branch's own, not the stack's largest entry.
        u = haar_unitary(np.random.default_rng(61), 3)
        w = np.array([-1.0, 0.5, 2.0])
        h1 = (u * w) @ u.conj().T
        h2 = (u * (1e6 * w)) @ u.conj().T
        asymmetry = h2 - h2.conj().T
        assert np.max(np.abs(asymmetry)) > 1e-12
        model = build_rotation_model(2, 1.0)
        accepted = replace(model, branch_hamiltonians=[h1, h2])
        assert np.array_equal(accepted.branch_hamiltonians[1], h2)
        with pytest.raises(NumericalError):
            replace(model, branch_hamiltonians=[h1 + asymmetry, h2])


class TestImperfectModel:
    def test_epsilon_zero_reduces_to_rotation(self):
        perfect = build_rotation_model(3, 1.4)
        degenerate = build_imperfect_model(3, 1.4, 0.0)
        assert np.array_equal(
            perfect.interaction_hamiltonian.matrix,
            degenerate.interaction_hamiltonian.matrix,
        )
        assert degenerate.fidelity == perfect.fidelity == 1.0

    def test_final_probability_closed_form(self):
        model = build_imperfect_model(2, 1.0, 0.1)
        psi_t = evolve(
            model.interaction_hamiltonian,
            balanced_initial_state(model),
            model.nominal_duration,
        )
        expected = (1.0 + math.sin(0.45 * math.pi) ** 2) / 2.0
        assert happened_probability(model, psi_t) == pytest.approx(expected, abs=1e-9)

    def test_small_epsilon_lower_bound(self):
        for eps in (0.01, 0.05, 0.1, 0.3):
            model = build_imperfect_model(2, 1.0, eps)
            psi_t = evolve(
                model.interaction_hamiltonian,
                balanced_initial_state(model),
                model.nominal_duration,
            )
            assert happened_probability(model, psi_t) >= 1.0 - eps * math.pi

    def test_rejects_bad_epsilon(self):
        for eps in (-0.1, 1.0, 1.5):
            with pytest.raises(InvalidParameter):
                build_imperfect_model(2, 1.0, eps)


def closed_form_levels(model):
    """(-g_i, +g_i) per branch, g_i read off the canonical block g_i(i|1><0| - i|0><1|)."""
    couplings = model.branch_blocks[:, 1, 0].imag
    return np.column_stack((-couplings, couplings))


class TestClosedFormSpectrum:
    # The canonical builder supplies its blocks' spectrum instead of calling eigh.
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        n=st.integers(2, MAX_OUTCOMES),
        epsilon=st.floats(0.0, 1.0, exclude_max=True),
        u=st.floats(-100.0, 100.0),
    )
    def test_is_eighs_bit_for_bit(self, n, epsilon, u):
        model = build_imperfect_model(n, 10.0**u, epsilon)
        w, v = np.linalg.eigh(model.branch_blocks)
        assert model.branch_spectra.eigenvalues.tobytes() == w.tobytes()
        assert model.branch_spectra.eigenvectors.tobytes() == v.tobytes()

    @pytest.mark.parametrize("g", [1e-300, 1e305])
    def test_levels_are_exact_at_extreme_scales(self, g):
        # eigh rescales these blocks and its levels are off by a few ulps.
        model = build_imperfect_model(3, g, 0.1)
        levels = closed_form_levels(model)
        assert np.array_equal(model.branch_spectra.eigenvalues, levels)
        w, _ = np.linalg.eigh(model.branch_blocks)
        assert np.max(np.abs(w - levels) / np.abs(levels)) <= TOL.spectral

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_one_flipped_sign_fails_reconstruction(self, entry, monkeypatch):
        flipped = measurement._ROTATION_EIGENVECTORS.copy()
        flipped[entry] *= -1
        monkeypatch.setattr(measurement, "_ROTATION_EIGENVECTORS", flipped)
        with pytest.raises(EigensolverFailure, match="spectral reconstruction off"):
            build_imperfect_model(3, 1.0, 0.1)

    @pytest.mark.parametrize("copy", [
        lambda model: replace(model, branch_blocks=2 * model.branch_blocks),
        lambda model: pickle.loads(pickle.dumps(model)),
    ], ids=["replaced", "unpickled"])
    def test_copies_diagonalise_their_own_blocks(self, copy, monkeypatch):
        eigh, calls = np.linalg.eigh, []

        def counting_eigh(matrices):
            calls.append(matrices.shape)
            return eigh(matrices)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        model = build_imperfect_model(4, 1.5, 0.2)
        twin = copy(model)
        dec = twin.branch_spectra
        assert calls == [(4, 2, 2)]
        v, w = dec.eigenvectors, dec.eigenvalues
        residual = (v * w[:, None, :]) @ v.conj().swapaxes(1, 2) - twin.branch_blocks
        assert np.max(np.abs(residual)) <= TOL.spectral * np.max(np.abs(twin.branch_blocks))
        assert np.array_equal(w, closed_form_levels(twin))


class TestHappenedProjector:
    def test_defining_actions(self):
        model = build_rotation_model(2, 1.0)
        m = happened_projector(model).matrix
        pairs = [np.kron(a, o) for a in model.system_frame.T for o in model.pointer_frame.T[1:]]
        matched_aa, mismatched_ab, mismatched_ba, matched_bb = pairs
        assert np.max(np.abs(m @ matched_aa - matched_aa)) < 1e-12
        assert np.max(np.abs(m @ matched_bb - matched_bb)) < 1e-12
        assert np.max(np.abs(m @ mismatched_ab)) < 1e-12
        assert np.max(np.abs(m @ mismatched_ba)) < 1e-12

    def test_kills_products_orthogonal_to_pointer_frame(self):
        rng = np.random.default_rng(17)
        model = build_rotation_model(3, 1.0)
        m = happened_projector(model).matrix
        for _ in range(5):
            product = tensor_state(haar_state(rng, (3,)), ready_state(model))
            assert np.max(np.abs(m @ product.amplitudes)) < 1e-12

    def test_trace_equals_outcome_count(self):
        for n in (2, 3, 6):
            m = happened_projector(build_rotation_model(n, 1.0)).matrix
            assert abs(np.trace(m).real - n) < 1e-12

    def test_projector_property_random_frames(self):
        rng = np.random.default_rng(19)
        for n in range(2, 7):
            model = random_frame_model(rng, n, extra_apparatus=int(rng.integers(0, 2)))
            m = happened_projector(model).matrix
            assert np.max(np.abs(m @ m - m)) < 1e-12
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            eigenvalues = np.linalg.eigvalsh(m)
            assert np.sum(eigenvalues > 0.5) == n


class TestRateOperator:
    def test_is_hermitian(self):
        rng = np.random.default_rng(23)
        model = build_rotation_model(2, 1.0)
        h = HermitianOperator(model.joint_dims, random_hermitian(rng, 6, scale=2.0))
        m = rate_operator(model, h).matrix
        assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_commuting_hamiltonian_freezes_probability(self):
        model = build_rotation_model(2, 1.0)
        happened = happened_projector(model)
        rate = rate_operator(model, happened)  # H = M commutes with M
        assert np.max(np.abs(rate.matrix)) == 0.0
        psi0 = balanced_initial_state(model)
        states = np.column_stack(
            [evolve(happened, psi0, t).amplitudes for t in TimeGrid(0.0, 2.0, 21).times]
        )
        prob = expectations(happened.matrix, states)
        assert np.max(np.abs(prob - prob[0])) < 1e-12

    def test_rotation_rate_closed_form(self):
        model = build_rotation_model(2, 1.0)
        h = model.interaction_hamiltonian
        rate = rate_operator(model, h)
        psi0 = balanced_initial_state(model)
        for t in (0.0, 0.4, math.pi / 4, 1.2):
            value = expectation(rate, evolve(h, psi0, t))
            assert abs(value - math.sin(2 * t)) < 1e-9

    def test_ehrenfest_identity_random_triples(self):
        rng = np.random.default_rng(29)
        step = 1e-4
        for _ in range(20):
            n = int(rng.integers(2, 5))
            model = random_frame_model(rng, n)
            dim = model.system_dim * model.apparatus_dim
            h = HermitianOperator(model.joint_dims, random_hermitian(rng, dim, scale=1.5))
            m_op = happened_projector(model)
            r_op = rate_operator(model, h)
            psi0 = haar_state(rng, model.joint_dims)
            t0 = float(rng.uniform(0.1, 1.0))
            plus = expectation(m_op, evolve(h, psi0, t0 + step))
            minus = expectation(m_op, evolve(h, psi0, t0 - step))
            derivative = (plus - minus) / (2 * step)
            assert abs(derivative - expectation(r_op, evolve(h, psi0, t0))) < max(
                1e-5, step**2
            )

    def test_dimension_mismatch(self):
        model = build_rotation_model(2, 1.0)
        with pytest.raises(DimensionMismatch):
            rate_operator(model, HermitianOperator((2, 2), np.zeros((4, 4))))

    def test_pair_forms_equal_their_definitions(self):
        rng = np.random.default_rng(31)
        for n in range(2, 6):
            for extra in (0, 1):
                model = random_frame_model(rng, n, extra_apparatus=extra)
                dim = model.system_dim * model.apparatus_dim
                h = random_hermitian(rng, dim, scale=float(rng.uniform(0.5, 3.0)))
                tol = 1e-12 * max(1.0, np.max(np.abs(h)))
                pairs = [np.kron(a, o) for a, o in
                         zip(model.system_frame.T, model.pointer_frame.T[1:])]
                m = sum(np.outer(pair, pair.conj()) for pair in pairs)
                assert np.max(np.abs(happened_projector(model).matrix - m)) < tol
                rate = rate_operator(model, HermitianOperator(model.joint_dims, h)).matrix
                assert np.max(np.abs(rate - 1j * (h @ m - m @ h))) < tol

    @pytest.mark.parametrize("hamiltonian", ["canonical", "random"])
    def test_slabs_equal_one_call_products(self, hamiltonian):
        # At n = 20 (D = 420) each product takes 23 slabs of 19 rows. A slab's
        # entries are summed as in one call, so on OpenBLAS 0.3.31 the bits agree.
        model = build_imperfect_model(20, 1.0, 0.1)
        h = model.interaction_hamiltonian
        if hamiltonian == "random":
            h = HermitianOperator(h.dims, random_hermitian(np.random.default_rng(37), 420))
        v = measurement._pair_columns(model)
        y = h.matrix @ v
        np.testing.assert_array_equal(happened_projector(model).matrix, v @ v.conj().T)
        np.testing.assert_array_equal(rate_operator(model, h).matrix,
                                      np.hstack((1j * y, -1j * v)) @ np.hstack((v, y)).conj().T)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDenseMemory:
    """The dense joint operators cost about the matrices they return (D = 420)."""

    def test_hermiticity_check_holds_row_blocks_only(self):
        h = build_imperfect_model(20, 1.0, 0.1).interaction_hamiltonian.matrix
        # Measured 0.49 MB; the whole-matrix check held 5.8 MB.
        assert traced_peak(lambda: check_hermitian(h)) < 2**20

    def test_rate_operator_allocates_about_its_result(self):
        model = build_imperfect_model(20, 1.0, 0.1)
        h = model.interaction_hamiltonian  # cached before tracing
        side = h.matrix.shape[0]
        # Measured 1.200 x 16 D^2: the result, [V | Y]^H, V and Y while the
        # last slabs are formed. Whole products, with the factors kept through
        # the check, held 1.29 x; X, X^H, the copy and the check held 4.1 x.
        assert traced_peak(lambda: rate_operator(model, h)) < 1.22 * 16 * side**2

    def test_happened_projector_allocates_about_its_result(self):
        model = build_imperfect_model(20, 1.0, 0.1)
        side = model.system_dim * model.apparatus_dim
        # Measured 1.173 x 16 D^2: the result and the Hermiticity check's
        # blocks. V V^H in one call, with V kept through the check, held 1.22 x.
        assert traced_peak(lambda: happened_projector(model)) < 1.19 * 16 * side**2


class TestHappenedProbability:
    def test_ready_pointer_gives_zero(self):
        model = build_rotation_model(2, 1.0)
        assert happened_probability(model, balanced_initial_state(model)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_correlated_state_gives_one(self):
        rng = np.random.default_rng(31)
        model = build_rotation_model(2, 1.0)
        for _ in range(5):
            coeffs = haar_state(rng, (2,)).amplitudes
            amps = sum(
                c * np.kron(a, o)
                for c, a, o in zip(coeffs, model.system_frame.T, model.pointer_frame.T[1:])
            )
            psi = StateVector(model.joint_dims, amps)
            assert happened_probability(model, psi) == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_pair_gives_zero(self):
        model = build_rotation_model(2, 1.0)
        psi = tensor_state(basis_state(2, 0), basis_state(3, 2))
        assert happened_probability(model, psi) == pytest.approx(0.0, abs=1e-12)


class TestPremeasurementCheck:
    def test_rotation_model_is_perfect(self):
        fid = premeasurement_check(build_rotation_model(3, 1.0))
        assert fid.shape == (3,)
        assert np.max(np.abs(fid - 1.0)) < 1e-10

    def test_imperfect_model_per_branch(self):
        fid = premeasurement_check(build_imperfect_model(2, 1.0, 0.1))
        assert fid[0] == pytest.approx(math.sin(0.45 * math.pi) ** 2, abs=1e-10)
        assert fid[1] == pytest.approx(1.0, abs=1e-10)
        assert fid.min() < 0.99

    def test_zero_interaction_never_qualifies(self):
        model = build_rotation_model(2, 1.0)
        dead = replace(model, branch_hamiltonians=np.zeros((2, 3, 3)))
        fid = premeasurement_check(dead)
        assert fid.tolist() == [0.0, 0.0]
        assert 1 - fid.min() == 1.0

    def test_matches_closed_form_at_twenty_outcomes(self):
        g, eps = 1.3, 0.2
        model = build_imperfect_model(20, g, eps)
        rates = np.full(20, g)
        rates[0] = g * (1 - eps)
        expected = np.sin(rates * model.nominal_duration) ** 2
        fid = premeasurement_check(model)
        assert np.max(np.abs(fid - expected)) < 1e-12
        assert 1 - fid.min() == pytest.approx(1 - expected[0], abs=1e-12)

    @pytest.mark.parametrize("random_branches", [False, True])
    def test_complex_frames_match_dense_oracle(self, random_branches):
        # Haar frames are complex, so an unconjugated pointer bra scores the
        # wrong overlap; random H_i make every fidelity a generic number.
        rng = np.random.default_rng(61)
        model = random_frame_model(rng, 3, extra_apparatus=1)
        if random_branches:
            stack = np.stack([random_hermitian(rng, model.apparatus_dim) for _ in range(3)])
            model = replace(model, branch_hamiltonians=stack)
        joint = model.interaction_hamiltonian.matrix
        expected = []
        for i in range(3):
            a = model.system_frame[:, i]
            start = np.kron(a, model.pointer_frame[:, 0])
            evolved = evolve_series(joint, start, model.nominal_duration)
            pair = np.kron(a, model.pointer_frame[:, i + 1])
            expected.append(abs(pair.conj() @ evolved) ** 2)
        assert np.max(np.abs(premeasurement_check(model) - expected)) < 1e-10

    @staticmethod
    def _prob_at_nominal_duration(model, i, points):
        """trajectory's P at T, starting from |a_i> (x) |ready>: branch row i is |ready>."""
        rows = np.zeros((model.n_outcomes, model.apparatus_dim), dtype=complex)
        rows[i] = model.pointer_frame[:, 0]
        grid = TimeGrid(0.0, model.nominal_duration, points)
        return trajectory(model, rows, grid).prob_happened[-1]

    @pytest.mark.parametrize("points", [2, 201])
    @pytest.mark.parametrize("n", [2, 20, 100])
    def test_is_the_happened_probability_at_nominal_duration(self, n, points):
        # Both are the overlap |<o_i|phi_i(T)>|^2, so they agree bit for bit.
        model = build_imperfect_model(n, 1.3, 0.2)
        fid = premeasurement_check(model)
        for i in range(n):
            assert fid[i] == self._prob_at_nominal_duration(model, i, points)

    def test_is_the_happened_probability_for_a_random_frame(self):
        model = random_frame_model(np.random.default_rng(67), 4, extra_apparatus=2)
        fid = premeasurement_check(model)
        for i in range(4):
            assert abs(fid[i] - self._prob_at_nominal_duration(model, i, 201)) < 1e-14


class TestSchmidtDecompose:
    def test_product_state_single_coefficient(self):
        rng = np.random.default_rng(37)
        psi = tensor_state(haar_state(rng, (3,)), haar_state(rng, (4,)))
        dec = schmidt_decompose(psi.amplitudes, psi.dims, 1)
        assert dec.coefficients.shape == (1,)
        assert dec.coefficients[0] == pytest.approx(1.0, abs=1e-12)

    def test_correlated_state_balanced_spectrum(self):
        model = build_rotation_model(2, 1.0)
        psi_t = evolve(
            model.interaction_hamiltonian,
            balanced_initial_state(model),
            model.nominal_duration,
        )
        dec = schmidt_decompose(psi_t.amplitudes, psi_t.dims, 1)
        assert np.allclose(dec.coefficients, [SQ2, SQ2], atol=1e-10)
        assert np.allclose(dec.left, [[1, 0], [0, 1]], atol=1e-8)
        assert np.allclose(dec.right, [[0, 1, 0], [0, 0, 1]], atol=1e-8)
        for rows in (dec.left, dec.right):  # read-only
            with pytest.raises(ValueError):
                rows[0, 0] = 0.0

    def test_reconstruction_random_states(self):
        rng = np.random.default_rng(41)
        for dims in ((2, 5), (3, 4), (2, 2, 3)):
            psi = haar_state(rng, dims)
            for split in range(1, len(dims)):
                dec = schmidt_decompose(psi.amplitudes, dims, split)
                recon = sum(
                    c * np.kron(l, r) for c, l, r in zip(dec.coefficients, dec.left, dec.right)
                )
                assert np.linalg.norm(recon - psi.amplitudes) < 1e-9
                assert abs(np.sum(dec.coefficients**2) - 1.0) < 1e-10

    def test_near_degenerate_bases_jump(self):
        # Two states within 1e-3 of each other on opposite sides of a
        # degenerate spectrum have leading bases ~pi/4 apart.
        delta = 5e-4
        straight = np.array([1 + delta, 0, 0, 1 - delta], dtype=complex)
        straight /= np.linalg.norm(straight)
        tilted = np.array([1, delta, delta, 1], dtype=complex)
        tilted /= np.linalg.norm(tilted)
        assert np.linalg.norm(straight - tilted) < 1e-3

        lead_a = schmidt_decompose(straight, (2, 2), 1).left[0]
        lead_b = schmidt_decompose(tilted, (2, 2), 1).left[0]
        overlap = abs(np.vdot(lead_a, lead_b))
        angle = math.acos(min(1.0, overlap))
        assert angle > 0.5

    def test_rejects_bad_split(self):
        with pytest.raises(DimensionMismatch):
            schmidt_decompose(np.eye(4)[0], (4,), 1)

    def test_rejects_input_that_is_not_a_unit_state_on_dims(self):
        # Positive factor dims, one amplitude per basis state, unit norm.
        with pytest.raises(InvalidParameter):
            schmidt_decompose(np.eye(4)[0], (0, 4), 1)
        with pytest.raises(DimensionMismatch):
            schmidt_decompose(np.eye(5)[0], (2, 2), 1)
        with pytest.raises(NumericalError):
            schmidt_decompose(np.ones(4), (2, 2), 1)

    def test_invariant_rejects_bad_coefficients(self):
        with pytest.raises(NumericalError):
            SchmidtDecomposition(np.array([1.0, 1.0]), np.eye(2), np.eye(2))
        with pytest.raises(DimensionMismatch, match="equal length"):
            SchmidtDecomposition(np.array([1.0]), np.eye(2), np.eye(2))
        with pytest.raises(NumericalError, match="descending"):
            SchmidtDecomposition(np.array([0.6, 0.8]), np.eye(2), np.eye(2))
        # NaN passes the order checks and fails only the sum to one.
        for coefficients, vectors in (([np.nan], [[1.0]]), ([1.0, np.nan], np.eye(2))):
            with pytest.raises(NumericalError, match="sum to"):
                SchmidtDecomposition(coefficients, vectors, vectors)

    def test_reconstruction_failure_raises(self, monkeypatch):
        # Right vectors off by 1e-6 still make a valid record, but their
        # product misses the state by far more than the 1e-9 tolerance.
        svd = np.linalg.svd

        def skewed(matrix, full_matrices):
            u, s, vh = svd(matrix, full_matrices=full_matrices)
            return u, s, vh + 1e-6

        monkeypatch.setattr(np.linalg, "svd", skewed)
        psi = haar_state(np.random.default_rng(5), (2, 3))
        with pytest.raises(NumericalError, match="Schmidt reconstruction off by"):
            schmidt_decompose(psi.amplitudes, psi.dims, 1)
