"""Shared oracles and random-object helpers for the test suite.

The matrix exponential here is an independent power-series oracle: it never
touches the library's spectral-decomposition evolution path, so the two can
cross-check each other.
"""

import math

import numpy as np

from mclock import HermitianOperator, MeasurementModel, StateVector


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
    system = tuple(StateVector((n,), sys_u[:, i]) for i in range(n))
    ready = StateVector((d_app,), app_u[:, 0])
    pointers = tuple(StateVector((d_app,), app_u[:, i + 1]) for i in range(n))

    branches = tuple(
        HermitianOperator((d_app,), 1j * g * (
            np.outer(pointers[i].amplitudes, ready.amplitudes.conj())
            - np.outer(ready.amplitudes, pointers[i].amplitudes.conj())
        ))
        for i in range(n)
    )

    return MeasurementModel(
        n_outcomes=n,
        system_dim=n,
        apparatus_dim=d_app,
        system_eigenstates=system,
        pointer_ready=ready,
        pointer_states=pointers,
        branch_hamiltonians=branches,
        nominal_duration=math.pi / (2 * g),
        fidelity=1.0,
    )
