"""Dense linear algebra on finite-dimensional tensor-product Hilbert spaces.

States and operators carry the list of factor dimensions they live on.
One index convention holds everywhere: the first tensor factor varies
slowest (row-major over factors), which is what ``numpy.kron`` produces.
Units use hbar = 1; all values are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EigensolverFailure,
    InvalidParameter,
    MClockError,
    NonOrthonormalInput,
    NumericalError,
)
from .tolerances import TOL


def _as_dims(dims: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out or any(d <= 0 for d in out):
        raise InvalidParameter(f"factor dimensions must be positive integers, got {dims!r}")
    return out


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def check_unit_norm(amplitudes: np.ndarray) -> None:
    """Raise NumericalError unless the state vector, or every state column, has norm 1."""
    dev = float(np.max(np.abs(np.linalg.norm(amplitudes, axis=0) - 1.0)))
    if not dev <= TOL.norm:  # NaN fails too
        raise NumericalError(f"state norm deviates from 1 by {dev:.3e} (> {TOL.norm})")


def check_orthonormal(columns: np.ndarray, error: type[MClockError], what: str) -> None:
    """Raise ``error`` unless the columns are orthonormal within TOL.orthonormality."""
    dev = float(np.max(np.abs(columns.conj().T @ columns - np.eye(columns.shape[1]))))
    if dev > TOL.orthonormality:
        raise error(f"{what} not orthonormal (Gram deviation {dev:.3e})")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitude vector over a tensor-product basis."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = _as_dims(self.dims)
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != math.prod(dims):
            raise DimensionMismatch(
                f"amplitude length {amps.size} != product of dims {dims}"
            )
        check_unit_norm(amps)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Square complex matrix, self-adjoint within tolerance, on a tensor-product space."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = _as_dims(self.dims)
        mat = np.array(self.matrix, dtype=np.complex128)
        side = math.prod(dims)
        if mat.shape != (side, side):
            raise DimensionMismatch(
                f"matrix shape {mat.shape} != ({side}, {side}) for dims {dims}"
            )
        dev = float(np.max(np.abs(mat - mat.conj().T)))
        if dev > TOL.hermiticity:
            raise NumericalError(
                f"matrix deviates from self-adjointness by {dev:.3e} (> {TOL.hermiticity})"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", _freeze(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (real, ascending) and unitary eigenvector columns of a Hermitian operator."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.array(self.eigenvalues, dtype=np.float64).reshape(-1)
        v = np.array(self.eigenvectors, dtype=np.complex128)
        if v.shape != (w.size, w.size):
            raise DimensionMismatch(f"eigenvector matrix {v.shape} does not match {w.size} eigenvalues")
        if np.any(np.diff(w) < 0):
            raise NumericalError("eigenvalues must be in ascending order")
        check_orthonormal(v, NumericalError, "eigenvector matrix")
        object.__setattr__(self, "eigenvalues", _freeze(w))
        object.__setattr__(self, "eigenvectors", _freeze(v))


def basis_state(dim: int, index: int) -> StateVector:
    """Computational basis vector e_index of a single factor C^dim."""
    if not 0 <= index < dim:
        raise InvalidParameter(f"index {index} outside [0, {dim})")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector((dim,), amps)


def identity_operator(dims: Sequence[int]) -> HermitianOperator:
    """Identity on the space with the given factor dimensions."""
    dims = _as_dims(dims)
    return HermitianOperator(dims, np.eye(math.prod(dims), dtype=np.complex128))


def tensor_state(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product of two states; a's indices vary slowest."""
    return StateVector(a.dims + b.dims, np.kron(a.amplitudes, b.amplitudes))


def tensor_operator(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product of two Hermitian operators, same index convention as tensor_state."""
    return HermitianOperator(a.dims + b.dims, np.kron(a.matrix, b.matrix))


def projector_onto(states: Sequence[StateVector]) -> HermitianOperator:
    """Orthogonal projector onto the span of a mutually orthonormal state list.

    Raises NonOrthonormalInput if the Gram matrix deviates from the identity
    beyond tolerance; the caller must orthonormalize first.
    """
    if not states:
        raise InvalidParameter("projector_onto needs at least one state")
    dims = states[0].dims
    if any(s.dims != dims for s in states):
        raise DimensionMismatch("all states must share the same factor dimensions")
    v = np.column_stack([s.amplitudes for s in states])
    check_orthonormal(v, NonOrthonormalInput, "input states")
    return HermitianOperator(dims, v @ v.conj().T)


def expectations(a: HermitianOperator, columns: np.ndarray) -> np.ndarray:
    """Real expectation values <psi_k|A|psi_k>, one per amplitude column psi_k.

    The imaginary parts must vanish within tolerance; they are checked and
    discarded.
    """
    if columns.shape[0] != a.dim:
        raise DimensionMismatch(f"operator dim {a.dim} != state dim {columns.shape[0]}")
    vals = np.einsum("ij,ij->j", columns.conj(), a.matrix @ columns)
    imag = float(np.max(np.abs(vals.imag)))
    if not imag <= TOL.expectation_imag:  # NaN fails too
        raise NumericalError(f"expectation has imaginary part {imag:.3e}")
    return vals.real


def expectation(a: HermitianOperator, psi: StateVector) -> float:
    """Real expectation value <psi|A|psi>: the one-state case of ``expectations``."""
    if a.dims != psi.dims:
        raise DimensionMismatch(f"operator dims {a.dims} != state dims {psi.dims}")
    return float(expectations(a, psi.amplitudes[:, None])[0])


def commutator(a: HermitianOperator, b: HermitianOperator) -> np.ndarray:
    """AB - BA as a plain matrix (anti-Hermitian for Hermitian inputs)."""
    if a.dims != b.dims:
        raise DimensionMismatch(f"operator dims {a.dims} != {b.dims}")
    return a.matrix @ b.matrix - b.matrix @ a.matrix


def spectral(a: HermitianOperator) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator, eigenvalues ascending.

    Raises EigensolverFailure on non-convergence or if the decomposition
    fails to reconstruct the input within TOL.spectral, relative to the
    largest entry of the input when that exceeds 1.
    """
    try:
        w, v = np.linalg.eigh(a.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"eigensolver did not converge: {exc}") from exc
    recon_dev = float(np.max(np.abs((v * w) @ v.conj().T - a.matrix)))
    tol = TOL.spectral * max(1.0, float(np.max(np.abs(a.matrix))))
    if recon_dev > tol:
        raise EigensolverFailure(f"spectral reconstruction off by {recon_dev:.3e} (> {tol:.3e})")
    return SpectralDecomposition(w, v)
