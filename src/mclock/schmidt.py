"""Schmidt decomposition of a joint amplitude array across a bipartition.

No command uses it, so only the package's lazy exports load this module.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, NumericalError
from .hilbert import Record, _as_dims, _check_small, _freeze, check_unit_norm
from .tolerances import TOL


class SchmidtDecomposition(Record):
    """Bipartite state sum_k c_k |l_k> (x) |r_k>; rows k of ``left`` and ``right`` are l_k, r_k."""

    __slots__ = ("coefficients", "left", "right")

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=np.float64).reshape(-1)
        left, right = (np.array(v, dtype=np.complex128, ndmin=2) for v in (self.left, self.right))
        if not (coeffs.size == left.shape[0] == right.shape[0]):
            raise DimensionMismatch("coefficients and vector rows must have equal length")
        if np.any(coeffs < 0) or np.any(np.diff(coeffs) > 0):
            raise NumericalError("coefficients must be nonnegative and descending")
        _check_small(abs(np.sum(coeffs**2) - 1.0), 0.0, TOL.orthonormality, NumericalError,
                     "squared coefficients do not sum to 1, off by")
        for name, arr in zip(self._fields, (coeffs, left, right)):
            object.__setattr__(self, name, _freeze(arr))


def schmidt_decompose(amplitudes: np.ndarray, dims, split: int) -> SchmidtDecomposition:
    """Schmidt decomposition of a unit state on dims across dims[:split] | dims[split:].

    Singular values below the cutoff are dropped (at least one is kept).
    Each kept pair is phase-normalized so the largest-magnitude entry of
    the left vector is real positive; exactly degenerate coefficients are
    ordered by descending lexicographic comparison of the left vectors'
    (Re, Im) entry pairs, which makes the output deterministic.
    """
    dims = _as_dims(dims)
    amps = np.array(amplitudes, dtype=np.complex128).reshape(-1)
    if amps.size != math.prod(dims):
        raise DimensionMismatch(f"amplitude length {amps.size} != product of dims {dims}")
    check_unit_norm(amps)
    if not 0 < split < len(dims):
        raise DimensionMismatch(
            f"split {split} must leave at least one factor on each side of {dims}"
        )
    matrix = amps.reshape(math.prod(dims[:split]), -1)
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)

    keep = max(1, int(np.sum(s > TOL.schmidt_cutoff)))
    u, s, vh = u[:, :keep], s[:keep], vh[:keep, :]

    peak = u[np.argmax(np.abs(u), axis=0), np.arange(keep)]
    phase = peak / np.abs(peak)
    u *= phase.conj()
    vh *= phase[:, None]

    order = sorted(
        range(keep),
        key=lambda k: (-s[k], tuple((-z.real, -z.imag) for z in u[:, k])),
    )
    u, s, vh = u[:, order], s[order], vh[order, :]
    dec = SchmidtDecomposition(s, u.T, vh)

    recon = ((u * s) @ vh).ravel()
    _check_small(np.linalg.norm(recon - amps), 0.0, TOL.schmidt_reconstruction, NumericalError,
                 "Schmidt reconstruction off by")
    return dec
