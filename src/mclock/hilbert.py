"""Dense linear algebra on finite-dimensional tensor-product Hilbert spaces.

The validators, ``expectations`` and ``spectral`` take plain arrays or stacks
of them; ``StateVector`` and ``HermitianOperator`` carry the factor dims of a
joint-space state or operator. The first tensor factor varies slowest
(row-major over factors), as ``numpy.kron`` produces. Units use hbar = 1.
The package's records derive from ``Record``: their fields are read-only
after construction and their arrays are frozen.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EigensolverFailure,
    InvalidParameter,
    MClockError,
    NumericalError,
)
from .tolerances import TOL

# Bytes of the largest working array in each blocked loop, which sizes its
# block by what it forms: ``trajectory``'s grid points, ``_tally``'s draws,
# ``check_hermitian``'s rows and ``format_csv``'s rows. Measured (tracemalloc):
# a D = 420 joint H is judged in 0.38 MB, not 5.8 MB whole; a 20,001-point
# n = 2 trajectory peaks at 1.0 MB, 3.3 MB in blocks of n d amplitudes. Blocks
# of 2^16 draws cost ``sample`` 0.8 MB more RSS, and of 2^13 30% more time.
BLOCK_BYTES = 2**17


class Record:
    """A read-only record whose fields are its ``__slots__``, compared by identity.

    The constructor takes the fields in slot order, by position or keyword,
    then calls ``__post_init__``, which validates them and may replace them
    through ``object.__setattr__``. Setting or deleting a field afterwards
    raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) + len(kwargs) != len(names) or set(names[len(args):]) != set(kwargs):
            raise TypeError(f"{type(self).__name__} takes exactly the fields {names}")
        for name, value in (*zip(names, args), *kwargs.items()):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __reduce__(self):  # copy and pickle rebuild through the validating constructor
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class ValueRecord(Record):
    """A ``Record`` that compares and hashes by its field values."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


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
    """Raise ``error`` unless the columns, of every matrix in a stack, are orthonormal."""
    gram = columns.conj().swapaxes(-1, -2) @ columns
    dev = float(np.max(np.abs(gram - np.eye(columns.shape[-1]))))
    if not dev <= TOL.orthonormality:  # NaN fails too
        raise error(f"{what} not orthonormal (Gram deviation {dev:.3e})")


def _max_abs(matrices: np.ndarray) -> np.ndarray:
    return np.max(np.abs(matrices), axis=(-2, -1))


def _check_small(
    dev: np.ndarray, peak: np.ndarray, rel: float, error: type[MClockError], what: str
) -> None:
    """Raise ``error`` unless each matrix's deviation (dev) <= rel x max(1, max|A| (peak))."""
    dev = np.ravel(dev)
    tol = rel * np.maximum(1.0, np.ravel(peak))
    if not np.all(dev <= tol):  # NaN fails too
        k = int(np.argmax(dev / tol))
        raise error(f"{what} {dev[k]:.3e} (> {tol[k]:.3e})")


def check_hermitian(matrices: np.ndarray) -> None:
    """Raise NumericalError unless each A of a (..., d, d) stack is self-adjoint.

    Each A is judged within TOL.hermiticity x max(1, max|A|), its own scale.
    Rows r..r+k of A from column r on are compared with columns r..r+k from
    row r on, conjugated, a block at a time, so each off-diagonal pair is
    judged once and the two cover every entry; ``np.maximum`` over the
    blocks is exact and keeps NaN.
    """
    rows = max(1, BLOCK_BYTES // max(1, matrices[..., 0, :].nbytes))
    dev = peak = 0.0
    for r in range(0, matrices.shape[-1], rows):
        block = matrices[..., r:r + rows, r:]
        adjoint = matrices[..., r:, r:r + rows].conj().swapaxes(-1, -2)
        dev = np.maximum(dev, _max_abs(block - adjoint))
        peak = np.maximum(peak, np.maximum(_max_abs(block), _max_abs(adjoint)))
    _check_small(dev, peak, TOL.hermiticity, NumericalError,
                 "matrix deviates from self-adjointness by")


class StateVector(Record):
    """Normalized complex amplitude vector over a tensor-product basis, with its factor dims."""

    __slots__ = ("dims", "amplitudes")

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


class HermitianOperator(Record):
    """Square complex matrix, self-adjoint within tolerance, on a tensor-product space.

    A complex128 ndarray that is read-only and owns its data is kept as it
    is; anything else is copied, so a caller's writable array or a view of
    one never aliases the record.
    """

    __slots__ = ("dims", "matrix")

    def __post_init__(self):
        dims = _as_dims(self.dims)
        mat = self.matrix
        if not (type(mat) is np.ndarray and mat.dtype == np.complex128
                and not mat.flags.writeable and mat.base is None):
            mat = np.array(mat, dtype=np.complex128)
        side = math.prod(dims)
        if mat.shape != (side, side):
            raise DimensionMismatch(
                f"matrix shape {mat.shape} != ({side}, {side}) for dims {dims}"
            )
        check_hermitian(mat)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", _freeze(mat))


class SpectralDecomposition(Record):
    """Eigenvalues (..., d), real and ascending, and unitary eigenvector columns (..., d, d)."""

    __slots__ = ("eigenvalues", "eigenvectors")

    def __post_init__(self):
        w = np.array(self.eigenvalues, dtype=np.float64)
        v = np.array(self.eigenvectors, dtype=np.complex128)
        if w.ndim == 0 or v.shape != w.shape + w.shape[-1:]:
            raise DimensionMismatch(f"eigenvectors {v.shape} do not match eigenvalues {w.shape}")
        if not np.all(np.diff(w, axis=-1) >= 0):  # NaN fails too
            raise NumericalError("eigenvalues must be in ascending order")
        check_orthonormal(v, NumericalError, "eigenvector matrix")
        object.__setattr__(self, "eigenvalues", _freeze(w))
        object.__setattr__(self, "eigenvectors", _freeze(v))


def expectations(matrix: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Real expectation values <psi_k|A|psi_k>, one per amplitude column psi_k.

    ``matrix`` is A, or a stack of matrices (..., d, d) applied to columns
    (..., d, k). Each operator's largest imaginary part must lie within
    TOL.expectation_imag x max(1, max|A|), judged as ``check_hermitian``
    judges; the imaginary parts are then discarded.
    """
    if columns.shape[-2] != matrix.shape[-1]:
        raise DimensionMismatch(f"operator {matrix.shape} cannot act on columns {columns.shape}")
    vals = np.einsum("...ij,...ij->...j", columns.conj(), matrix @ columns)
    imag = np.max(np.abs(vals.imag), axis=-1, initial=0.0)
    _check_small(imag, np.broadcast_to(_max_abs(matrix), imag.shape), TOL.expectation_imag,
                 NumericalError, "expectation has imaginary part")
    return vals.real


def expectation(a: HermitianOperator, psi: StateVector) -> float:
    """Real expectation value <psi|A|psi>: the one-state case of ``expectations``."""
    if a.dims != psi.dims:
        raise DimensionMismatch(f"operator dims {a.dims} != state dims {psi.dims}")
    return float(expectations(a.matrix, psi.amplitudes[:, None])[0])


def check_reconstruction(matrix: np.ndarray, w: np.ndarray, v: np.ndarray) -> None:
    """Raise EigensolverFailure unless each A of a (..., d, d) stack is V diag(w) V^H.

    Each A is judged within TOL.spectral x max(1, max|A|), its own scale,
    whether eigh computed (w, V) or the caller knows them in closed form.
    """
    residual = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2) - matrix
    _check_small(_max_abs(residual), _max_abs(matrix), TOL.spectral, EigensolverFailure,
                 "spectral reconstruction off by")


def spectral(matrix: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of a (..., d, d) stack, eigenvalues ascending.

    One ``eigh`` call serves the whole stack. Raises EigensolverFailure on
    non-convergence or if any matrix fails ``check_reconstruction``.
    """
    try:
        w, v = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"eigensolver did not converge: {exc}") from exc
    check_reconstruction(matrix, w, v)
    return SpectralDecomposition(w, v)
