"""System-apparatus measurement models and the measurement-timing operators.

A measurement model couples a system with n distinguishable outcomes to an
apparatus whose pointer moves from a ready state into one of n orthogonal
pointer states. Every model is a von Neumann premeasurement,
H = sum_i |a_i><a_i| (x) H_i, stored as the system frame (columns |a_i>),
the pointer frame (|ready>, then the pointer states) and each H_i on its
block C_i of apparatus coordinates, which holds |ready>, pointer i and every
nonzero entry of H_i; off C_i, exp(-i H_i t) is the identity. One spectral
decomposition of the (n, s, s) blocks (``branch_spectra``) serves every
branch-form computation: the canonical models (s = 2) carry theirs in closed
form, and any other model takes one stacked eigh. A dense H_i is the block
on every coordinate, C_i = (0, ..., d - 1). The projector M
onto the perfectly correlated system-pointer subspace answers "has the
measurement happened" (eigenvalue 1 = yes); its expectation in psi(t) is the
probability that it has happened by time t, and i[H, .] of it gives the time
density of the happening. On system branch i, M is |pointer_i><pointer_i|, so
P and the premeasurement fidelity are one overlap |<pointer_i|phi_i>|^2, taken
on the blocks as p is, and ``check``'s projector check reads only the frames.
The dense H_i, the joint H, M = V V^H and i[H, M] = [iY | -iV] [V | Y]^H,
Y = H V, with column i of V the pair |a_i> (x) |pointer_i>, are built only
on demand, as oracles for arbitrary H. Each joint operator is one zeroed
D x D array, of which only the rows that can hold a nonzero entry are
written, a slab of rows at a time; it is frozen and handed without its
factors to ``HermitianOperator``, which keeps a read-only complex array that
owns its data instead of copying it. On a canonical model M has n nonzero
rows of D, and H and i[H, M] 2n each. From n = 23 numpy advises huge pages
for a D x D array, and a 2 MiB page with one written row is resident whole,
so there the rows not written save time rather than memory.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import cached_property

import numpy as np

from .dynamics import _propagator
from .errors import DimensionMismatch, InvalidParameter, NumericalError
from .hilbert import (
    BLOCK_BYTES,
    HermitianOperator,
    Record,
    SpectralDecomposition,
    _check_lengths,
    _check_scalars,
    _freeze,
    check_hermitian,
    check_orthonormal,
    check_reconstruction,
    spectral,
)
from .tolerances import TOL


class MeasurementModel(Record):
    """An n-outcome system coupled to a pointer apparatus, each H_i stored on its block.

    ``system_frame`` is n x n; column i is the system eigenstate |a_i>, and
    the basis is complete so that a joint q/pointer measurement has a total
    outcome probability of one. ``pointer_frame`` is d x (n + 1); column 0
    is |ready> and column i + 1 is pointer i. It is orthonormal but need not
    span the apparatus space. H_i, the apparatus Hamiltonian that acts while
    the system is in |a_i>, is ``branch_blocks[i]`` on the s distinct
    apparatus coordinates ``block_index[i]``, each in [0, d), and zero
    elsewhere; those must hold every nonzero entry of |ready> and of pointer
    i. A dense H_i is the block on all d coordinates; ``branch_hamiltonians``
    returns the dense (n, d, d) stack. ``fidelity`` is the premeasurement
    fidelity the model claims to reach at ``nominal_duration`` (worst outcome
    branch); ``premeasurement_check`` verifies it. The ``__dict__`` slot
    holds the cached properties.
    """

    __slots__ = ("system_frame", "pointer_frame", "block_index", "branch_blocks",
                 "nominal_duration", "fidelity", "__dict__")

    def __post_init__(self):
        a, o = (np.array(f, dtype=np.complex128, ndmin=2)
                for f in (self.system_frame, self.pointer_frame))
        index = np.array(self.block_index, ndmin=2)
        if index.dtype.kind not in "iu" or index.size == 0:
            raise DimensionMismatch(f"block index must hold integer coordinates, at least one "
                                    f"per branch, got {index.dtype} of shape {index.shape}")
        h = np.array(self.branch_blocks, dtype=np.complex128, ndmin=3)
        n, d, s = a.shape[1], o.shape[0], index.shape[1]
        if (a.shape, o.shape, index.shape, h.shape) != ((n, n), (d, n + 1), (n, s), (n, s, s)):
            raise DimensionMismatch(f"need (n, n), (d, n + 1), (n, s) and (n, s, s) frames, "
                                    f"block index and blocks, got {a.shape}, {o.shape}, "
                                    f"{index.shape} and {h.shape}")
        if n < 2:
            raise InvalidParameter(f"need at least 2 outcomes, got {n}")
        check_orthonormal(a, NumericalError, "system frame")
        check_orthonormal(o, NumericalError, "pointer frame (ready + pointer states)")
        # Python ints, before the cast, so that no coordinate wraps.
        rows = index.tolist()
        if not all(0 <= k < d for row in rows for k in row):
            raise DimensionMismatch(f"block index outside the {d} apparatus coordinates")
        if not all(len(set(row)) == s for row in rows):
            raise DimensionMismatch("block index repeats a coordinate within a branch")
        index = index.astype(np.intp)
        # Row i: where |ready> or pointer i is nonzero, then cleared on block i.
        off_block = (o[:, 0] != 0) | (o[:, 1:].T != 0)
        np.put_along_axis(off_block, index, False, axis=1)
        if off_block.any():
            raise InvalidParameter("|ready> or pointer i is nonzero off the block of branch i")
        check_hermitian(h)
        if not (math.isfinite(self.nominal_duration) and self.nominal_duration > 0):
            raise InvalidParameter(f"nominal_duration {self.nominal_duration} must be finite > 0")
        if not 0.0 <= self.fidelity <= 1.0 + TOL.probability:
            raise InvalidParameter(f"declared fidelity {self.fidelity} outside [0, 1]")
        for name, arr in zip(self._fields, (a, o, index, h)):
            object.__setattr__(self, name, _freeze(arr))

    @property
    def n_outcomes(self) -> int:
        return self.system_frame.shape[1]

    @property
    def system_dim(self) -> int:
        return self.system_frame.shape[0]

    @property
    def apparatus_dim(self) -> int:
        return self.pointer_frame.shape[0]

    @property
    def joint_dims(self) -> tuple[int, int]:
        return (self.system_dim, self.apparatus_dim)

    @property
    def branch_hamiltonians(self) -> np.ndarray:
        """The dense (n, d, d) stack of H_i, built from the blocks on each use."""
        n, d, index = self.n_outcomes, self.apparatus_dim, self.block_index[:, :, None]
        dense = np.zeros((n, d, d), dtype=np.complex128)
        dense[np.arange(n)[:, None, None], index, index.swapaxes(1, 2)] = self.branch_blocks
        return _freeze(dense)

    def check_rows(self, rows: np.ndarray) -> None:
        """Raise DimensionMismatch unless ``rows`` are (n, d), one apparatus row per branch."""
        if rows.shape != (self.n_outcomes, self.apparatus_dim):
            raise DimensionMismatch(f"rows {rows.shape} are not the model's (n, d) = "
                                    f"{(self.n_outcomes, self.apparatus_dim)}")

    def on_blocks(self, rows: np.ndarray) -> np.ndarray:
        """The (n, s) entries of (n, d) rows, row i at the coordinates of branch i's block."""
        self.check_rows(rows)
        return np.take_along_axis(rows, self.block_index, axis=1)

    @cached_property
    def branch_spectra(self) -> SpectralDecomposition:
        """spectral(H_i) of every branch block from one stacked eigh, computed on first use.

        The canonical builder supplies it in closed form instead.
        """
        return spectral(self.branch_blocks)

    @cached_property
    def interaction_hamiltonian(self) -> HermitianOperator:
        """The dense joint H = sum_i |a_i><a_i| (x) H_i, built on first use."""
        frame, n, d = self.system_frame, self.system_dim, self.apparatus_dim
        branches = self.branch_hamiltonians
        # weights[a, b, i] = <a|a_i><a_i|b>, so system row a of the joint H is
        # joint[a, x, b, y] = sum_i weights[a, b, i] H_i[x, y], of which only
        # the apparatus rows x that hold a nonzero entry are written.
        weights = frame[:, None, :] * frame.conj()[None, :, :]
        joint = np.zeros((n * d, n * d), dtype=np.complex128)
        rows = joint.reshape(n, d, n, d)
        for a in range(n):
            block = np.tensordot(weights[a], branches, axes=1).swapaxes(0, 1)
            live = np.any(block != 0, axis=(1, 2))
            rows[a, live] = block[live]
        return HermitianOperator(self.joint_dims, _freeze(joint))


def build_rotation_model(n: int, g: float) -> MeasurementModel:
    """Exactly solvable n-outcome model: each branch rotates ready -> pointer.

    The coupling g drives |a_i> (x) |ready> to
    cos(g t)|a_i>(x)|ready> + sin(g t)|a_i>(x)|pointer_i>, so the happened
    probability is sin^2(g t) for every initial system superposition and
    reaches exactly 1 at the nominal duration pi/(2 g).
    """
    return build_imperfect_model(n, g, 0.0)


# The eigenvectors of every canonical block g(i|1><0| - i|0><1|), g > 0, for
# its eigenvalues -g and +g: columns (-1, i) / sqrt 2 and (-1, -i) / sqrt 2.
# 1 / sqrt 2 is taken as LAPACK's eigh rounds it, one ulp below the correctly
# rounded sqrt(0.5), so the spectrum is eigh's bit for bit.
_ROTATION_EIGENVECTORS = float.fromhex("0x1.6a09e667f3bccp-1") * np.array([[-1, -1], [1j, -1j]])


def build_imperfect_model(n: int, g: float, epsilon: float) -> MeasurementModel:
    """Rotation model whose first outcome couples at g(1 - epsilon).

    At the nominal duration the first branch has only rotated by
    (1 - epsilon) pi/2, so the pointer correlation is imperfect and the
    happened probability stays strictly below 1 for epsilon > 0. The model
    carries its blocks' closed-form spectrum as ``branch_spectra``, judged by
    the reconstruction check that judges eigh's, so it calls no eigh.
    """
    _check_scalars("an integer", n=n)
    _check_lengths(n=n)
    if n < 2:
        raise InvalidParameter(f"n must be at least 2, got {n}")
    _check_scalars("a real number", g=g, epsilon=epsilon)
    if not g > 0:
        raise InvalidParameter(f"g must be positive, got {g}")
    duration = math.pi / (2.0 * g)
    if not 0.0 < duration < math.inf:
        raise InvalidParameter(f"g = {g} gives no finite, positive nominal duration pi/(2g)")
    if not 0.0 <= epsilon < 1.0:
        raise InvalidParameter(f"epsilon must lie in [0, 1), got {epsilon}")
    couplings = np.full(n, float(g))
    couplings[0] = g * (1.0 - epsilon)
    # Both frames are standard bases: |ready> = e_0 and pointer i = e_{i+1}.
    # H_i = couplings[i] i(|e_{i+1}><e_0| - |e_0><e_{i+1}|) rotates
    # ready -> pointer i with a +sin amplitude under exp(-iHt); its block is
    # on the coordinates (0, i + 1).
    index = np.column_stack((np.zeros(n, dtype=np.intp), np.arange(1, n + 1)))
    blocks = np.zeros((n, 2, 2), dtype=np.complex128)
    blocks[:, 1, 0] = couplings * 1j
    blocks[:, 0, 1] = couplings * -1j

    # Each branch rotates by couplings[i] * duration; worst branch sets the fidelity.
    fidelity = float(min(math.sin(c * duration) ** 2 for c in couplings))
    model = MeasurementModel(
        system_frame=np.eye(n),
        pointer_frame=np.eye(n + 1),
        block_index=index,
        branch_blocks=blocks,
        nominal_duration=duration,
        fidelity=fidelity,
    )
    levels = np.column_stack((-couplings, couplings))  # ascending, as couplings >= 0
    vectors = np.broadcast_to(_ROTATION_EIGENVECTORS, (n, 2, 2))
    check_reconstruction(model.branch_blocks, levels, vectors)
    model.__dict__["branch_spectra"] = SpectralDecomposition(levels, vectors)
    return model


def _pair_columns(model: MeasurementModel) -> np.ndarray:
    """V, whose column i is the pair |a_i> (x) |pointer_i>, shaped (n d, n)."""
    a, o = model.system_frame, model.pointer_frame[:, 1:]
    return (a[:, None, :] * o[None, :, :]).reshape(-1, model.n_outcomes)


def _product(rows_of: Callable[[slice], np.ndarray], n_rows: int, b: np.ndarray) -> np.ndarray:
    """A @ b for the n_rows-row complex matrix A whose rows ``s`` are ``rows_of(s)``, frozen.

    The product is written into one zeroed array a slab of rows at a time, the
    slab spanning ``BLOCK_BYTES`` of the wider of a row of A (``len(b)``
    entries) and a row of the result. Only a slab of A need exist, and no BLAS
    call packs every row of A beside the result. Only the rows of a slab that
    hold a nonzero entry (NaN counts) are multiplied and written, so the pages
    that no such row reaches are never touched. A lone live row is multiplied
    with a neighbour, as numpy takes a single row by its vector-matrix
    routine, which rounds otherwise.
    """
    out = np.zeros((n_rows, b.shape[1]), dtype=np.complex128)
    rows = max(1, BLOCK_BYTES // (out.itemsize * max(b.shape)))
    for r in range(0, n_rows, rows):
        slab = rows_of(slice(r, r + rows))
        live = np.flatnonzero(np.any(slab != 0, axis=1))
        if live.size == len(slab):
            np.matmul(slab, b, out=out[r:r + rows])
        elif live.size:
            if live.size == 1:
                live = min(live[0], len(slab) - 2) + np.arange(2)
            out[r + live] = slab[live] @ b
    return _freeze(out)


def happened_projector(model: MeasurementModel) -> HermitianOperator:
    """M = V V^H, the projector onto the correlated pairs |a_i> (x) |pointer_i>.

    Eigenvalue 1 means the pointer correctly indicates the system outcome
    ("the measurement has happened"); rank equals n_outcomes. It maps each
    matched pair to itself, every mismatched pair to zero, and any product
    state whose apparatus factor is orthogonal to all pointer states to
    zero.
    """
    v = _pair_columns(model)
    projector = _product(lambda s: v[s], len(v), v.conj().T)
    del v  # the Hermiticity check runs without the factor
    return HermitianOperator(model.joint_dims, projector)


def rate_operator(model: MeasurementModel, hamiltonian: HermitianOperator) -> HermitianOperator:
    """i[H, M] for M the happened projector: the time density generator.

    With hbar = 1 this is Hermitian and satisfies
    d/dt <psi(t)|M|psi(t)> = <psi(t)| i[H, M] |psi(t)> exactly.
    With Y = H V, H M = Y V^H and M H = V Y^H, so i[H, M] is the one
    product [iY | -iV] [V | Y]^H of a (D, 2n) and a (2n, D) matrix, in
    O(D^2 n). Y and i[H, M] are each written into their result a slab of
    rows at a time (``_product``), and [iY | -iV] is formed only a slab of
    rows at a time.
    """
    if hamiltonian.dims != model.joint_dims:
        raise DimensionMismatch(f"H dims {hamiltonian.dims} != joint dims {model.joint_dims}")
    v = _pair_columns(model)
    y = _product(lambda s: hamiltonian.matrix[s], len(v), v)
    right = np.hstack((v, y)).conj().T
    rate = _product(lambda s: np.hstack((1j * y[s], -1j * v[s])), len(v), right)
    del v, y, right  # the Hermiticity check runs without the factors
    return HermitianOperator(model.joint_dims, rate)


def premeasurement_check(model: MeasurementModel) -> np.ndarray:
    """Evolve each |a_i> (x) |ready> for the nominal duration and score it.

    Returns the (n,) fidelities |<a_i, pointer_i | psi(T)>|^2 =
    |<o_i| exp(-i H_i T) |ready>|^2, all branches at once: ``trajectory``'s
    overlap for P, taken from |ready> on branch i's block, which holds it and
    o_i; the orthonormal pointer frame and eigenvectors and the unimodular
    phases keep its norm. A bad model gets a low fidelity, not an exception;
    only EigensolverFailure (from the eigh of ``branch_spectra``, which a
    canonical model never calls) or a phase off modulus 1 (NumericalError)
    raises.
    """
    ready = model.pointer_frame[model.block_index, 0]
    bras = model.on_blocks(model.pointer_frame.T[1:])[:, None, :].conj()
    _, propagate = _propagator(model.branch_spectra, ready)
    a = (bras @ propagate(np.array([model.nominal_duration]))).ravel()
    return a.real**2 + a.imag**2
