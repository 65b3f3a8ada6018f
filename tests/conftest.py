"""Shared oracles and random-object helpers for the test suite.

The matrix exponential here is an independent power-series oracle: it never
touches the library's spectral-decomposition evolution path, so the two can
cross-check each other. Tests that build a joint-space state, for the dense
oracle or as a Haar-random start, hand the library its branch rows through
``branch_rows``. ``basis_state``, ``tensor_state`` and ``happened_probability``
build such states and read the dense happened projector in them. ``fields``
and ``replace`` read and rebuild any mclock record. ``whole_space_model``
builds a model from a dense stack of H_i, each stored as the block on every
apparatus coordinate.
"""

import math

import numpy as np

from mclock import MeasurementModel, StateVector, expectation, happened_projector


def fields(record_class) -> list[str]:
    """The field names of an mclock record class, in constructor order."""
    return list(record_class._fields)


def replace(record, **changes):
    """A new record of the same class with ``changes`` to its fields, validated again.

    A model's dense ``branch_hamiltonians`` replace its blocks through
    ``whole_space_model``.
    """
    values = {name: getattr(record, name) for name in fields(type(record))}
    if "branch_hamiltonians" in changes:
        del values["block_index"], values["branch_blocks"]
        return whole_space_model(**{**values, **changes})
    return type(record)(**{**values, **changes})


def whole_space_model(system_frame, pointer_frame, branch_hamiltonians, nominal_duration,
                      fidelity) -> MeasurementModel:
    """The model whose dense (n, d, d) H_i are each the block on all d apparatus coordinates."""
    h = np.asarray(branch_hamiltonians)
    index = np.broadcast_to(np.arange(h.shape[-1]), h.shape[:-1])
    return MeasurementModel(system_frame, pointer_frame, index, h, nominal_duration, fidelity)


def series_expm(a: np.ndarray, tol: float = 1e-16, max_terms: int = 80) -> np.ndarray:
    """exp(A) by brute-force Taylor series with scaling and squaring."""
    a = np.asarray(a, dtype=complex)
    norm = float(np.linalg.norm(a, np.inf))
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    b = a / (2**squarings)
    term = np.eye(a.shape[0], dtype=complex)
    total = term.copy()
    for k in range(1, max_terms + 1):
        term = term @ b / k
        total = total + term
        if float(np.max(np.abs(term))) < tol:
            break
    for _ in range(squarings):
        total = total @ total
    return total


def evolve_series(hamiltonian_matrix: np.ndarray, amplitudes: np.ndarray, t: float) -> np.ndarray:
    """Schrodinger propagation of raw amplitudes by the power-series oracle."""
    return series_expm(-1j * t * np.asarray(hamiltonian_matrix)) @ amplitudes


def branch_rows(model: MeasurementModel, psi: StateVector) -> np.ndarray:
    """Row i is chi_i = (<a_i| (x) I) psi; the system frame is complete, so any psi splits."""
    assert psi.dims == model.joint_dims
    return model.system_frame.conj().T @ psi.amplitudes.reshape(model.joint_dims)


def basis_state(dim: int, index: int) -> StateVector:
    """Computational basis vector e_index of a single factor C^dim."""
    return StateVector((dim,), np.eye(dim)[index])


def tensor_state(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product of two states; a's indices vary slowest."""
    return StateVector(a.dims + b.dims, np.kron(a.amplitudes, b.amplitudes))


def happened_probability(model: MeasurementModel, psi: StateVector) -> float:
    """<psi|M|psi> for the model's dense happened projector M."""
    return expectation(happened_projector(model), psi)


def ready_state(model: MeasurementModel) -> StateVector:
    """The apparatus ready state, column 0 of the pointer frame."""
    return StateVector((model.apparatus_dim,), model.pointer_frame[:, 0])


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    """Gaussian Hermitian matrix rescaled to spectral norm ``scale``."""
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (x + x.conj().T) / 2
    return h * (scale / np.linalg.norm(h, 2))


def haar_state(rng: np.random.Generator, dims) -> StateVector:
    z = rng.normal(size=math.prod(dims)) + 1j * rng.normal(size=math.prod(dims))
    return StateVector(tuple(dims), z / np.linalg.norm(z))


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_frame_model(
    rng: np.random.Generator, n: int, extra_apparatus: int = 0, g: float = 1.0
) -> MeasurementModel:
    """Valid measurement model with Haar-random system and pointer frames.

    With extra_apparatus > 0 the apparatus has directions outside the
    pointer frame, which exercises the residual outcome bucket.
    """
    d_app = n + 1 + extra_apparatus
    sys_u = haar_unitary(rng, n)
    app_u = haar_unitary(rng, d_app)
    # H_i = i g (|o_i><ready| - |ready><o_i|), stacked over the branches i.
    pointer_to_ready = app_u[:, 1 : n + 1].T[:, :, None] * app_u[:, 0].conj()
    branches = 1j * g * (pointer_to_ready - pointer_to_ready.conj().transpose(0, 2, 1))

    return whole_space_model(
        system_frame=sys_u,
        pointer_frame=app_u[:, : n + 1],
        branch_hamiltonians=branches,
        nominal_duration=math.pi / (2 * g),
        fidelity=1.0,
    )
