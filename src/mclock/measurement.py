"""System-apparatus measurement models and the measurement-timing operators.

A measurement model couples a system with n distinguishable outcomes to an
apparatus whose pointer moves from a ready state into one of n orthogonal
pointer states. Every model is a von Neumann premeasurement,
H = sum_i |a_i><a_i| (x) H_i, and is stored as three arrays: the system
frame (columns |a_i>), the pointer frame (|ready>, then the pointer states)
and the (n, d, d) stack of branch Hamiltonians H_i on the apparatus space.
The dense joint H is built only on demand. One stacked eigh diagonalises
every H_i (``branch_spectra``) for all branch-form computations to share. The
projector M onto the perfectly correlated system-pointer subspace answers
"has the measurement happened" (eigenvalue 1 = yes); its expectation in
psi(t) is the probability that it has happened by time t, and i[H, .] of
it gives the time density of the happening. On system branch i, M is
|pointer_i><pointer_i|, so P, p and ``check``'s projector check are computed
in branch form; ``happened_projector`` and ``rate_operator`` build M and
i[H, M] as dense joint-space operators, for tests with arbitrary H. Both
start from the pair columns V (column i is |a_i> (x) |pointer_i>):
M = V V^H, and i[H, M] = i(X - X^H) with X = (H V) V^H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import _propagator
from .errors import DimensionMismatch, InvalidParameter, NumericalError
from .hilbert import (
    HermitianOperator,
    SpectralDecomposition,
    StateVector,
    check_hermitian,
    check_orthonormal,
    check_unit_norm,
    expectation,
    spectral,
)
from .tolerances import TOL


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """An n-outcome system coupled to a pointer apparatus, stored as three arrays.

    ``system_frame`` is n x n; column i is the system eigenstate |a_i>, and
    the basis is complete so that a joint q/pointer measurement has a total
    outcome probability of one. ``pointer_frame`` is d x (n + 1); column 0
    is |ready> and column i + 1 is pointer i. It is orthonormal but need not
    span the apparatus space. ``branch_hamiltonians`` is the (n, d, d) stack
    of H_i, the apparatus Hamiltonian that acts while the system is in |a_i>.
    ``fidelity`` is the premeasurement fidelity the model claims to reach at
    ``nominal_duration`` (worst outcome branch); ``premeasurement_check``
    verifies it.
    """

    system_frame: np.ndarray
    pointer_frame: np.ndarray
    branch_hamiltonians: np.ndarray
    nominal_duration: float
    fidelity: float

    def __post_init__(self):
        names = ("system_frame", "pointer_frame", "branch_hamiltonians")
        a, o, h = (np.array(getattr(self, k), dtype=np.complex128, ndmin=2) for k in names)
        n, d = a.shape[1], o.shape[0]
        if a.shape != (n, n) or o.shape != (d, n + 1) or h.shape != (n, d, d):
            raise DimensionMismatch(f"need (n, n) and (d, n + 1) frames and (n, d, d) H_i, got "
                                    f"{a.shape}, {o.shape} and {h.shape}")
        if n < 2:
            raise InvalidParameter(f"need at least 2 outcomes, got {n}")
        check_orthonormal(a, NumericalError, "system frame")
        check_orthonormal(o, NumericalError, "pointer frame (ready + pointer states)")
        check_hermitian(h)
        if not self.nominal_duration > 0:
            raise InvalidParameter("nominal_duration must be positive")
        if not 0.0 <= self.fidelity <= 1.0 + TOL.probability:
            raise InvalidParameter(f"declared fidelity {self.fidelity} outside [0, 1]")
        for name, arr in zip(names, (a, o, h)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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

    @cached_property
    def branch_spectra(self) -> SpectralDecomposition:
        """spectral(H_i) of every branch from one stacked eigh, computed on first use."""
        return spectral(self.branch_hamiltonians)

    @cached_property
    def interaction_hamiltonian(self) -> HermitianOperator:
        """The dense joint H = sum_i |a_i><a_i| (x) H_i, built on first use."""
        frame = self.system_frame
        # weights[a, b, i] = <a|a_i><a_i|b>; one product with the stacked H_i
        # gives joint[a, x, b, y] = sum_i weights[a, b, i] H_i[x, y].
        weights = frame[:, None, :] * frame.conj()[None, :, :]
        joint = np.tensordot(weights, self.branch_hamiltonians, axes=1).transpose(0, 2, 1, 3)
        side = self.system_dim * self.apparatus_dim
        return HermitianOperator(self.joint_dims, joint.reshape(side, side))


def _build_canonical_model(n: int, g: float, epsilon: float) -> MeasurementModel:
    if n < 2:
        raise InvalidParameter(f"need at least 2 outcomes, got {n}")
    if not g > 0:
        raise InvalidParameter(f"coupling must be positive, got {g}")
    if not 0.0 <= epsilon < 1.0:
        raise InvalidParameter(f"epsilon must lie in [0, 1), got {epsilon}")
    couplings = np.full(n, float(g))
    couplings[0] = g * (1.0 - epsilon)
    # Both frames are standard bases: |ready> = e_0 and pointer i = e_{i+1}.
    # H_i = couplings[i] i(|e_{i+1}><e_0| - |e_0><e_{i+1}|) rotates
    # ready -> pointer i with a +sin amplitude under exp(-iHt).
    branch = np.arange(n)
    branches = np.zeros((n, n + 1, n + 1), dtype=np.complex128)
    branches[branch, branch + 1, 0] = couplings * 1j
    branches[branch, 0, branch + 1] = couplings * -1j

    duration = math.pi / (2.0 * g)
    if not (math.isfinite(duration) and duration > 0):
        raise InvalidParameter(f"coupling {g} gives nominal duration {duration}, not finite > 0")
    # Each branch rotates by couplings[i] * duration; worst branch sets the fidelity.
    fidelity = float(min(math.sin(c * duration) ** 2 for c in couplings))
    return MeasurementModel(
        system_frame=np.eye(n),
        pointer_frame=np.eye(n + 1),
        branch_hamiltonians=branches,
        nominal_duration=duration,
        fidelity=fidelity,
    )


def build_rotation_model(n: int, g: float) -> MeasurementModel:
    """Exactly solvable n-outcome model: each branch rotates ready -> pointer.

    The coupling g drives |a_i> (x) |ready> to
    cos(g t)|a_i>(x)|ready> + sin(g t)|a_i>(x)|pointer_i>, so the happened
    probability is sin^2(g t) for every initial system superposition and
    reaches exactly 1 at the nominal duration pi/(2 g).
    """
    return _build_canonical_model(n, g, 0.0)


def build_imperfect_model(n: int, g: float, epsilon: float) -> MeasurementModel:
    """Rotation model whose first outcome couples at g(1 - epsilon).

    At the nominal duration the first branch has only rotated by
    (1 - epsilon) pi/2, so the pointer correlation is imperfect and the
    happened probability stays strictly below 1 for epsilon > 0.
    """
    return _build_canonical_model(n, g, epsilon)


def _pair_columns(model: MeasurementModel) -> np.ndarray:
    """V, whose column i is the pair |a_i> (x) |pointer_i>, shaped (n d, n)."""
    a, o = model.system_frame, model.pointer_frame[:, 1:]
    return (a[:, None, :] * o[None, :, :]).reshape(-1, model.n_outcomes)


def happened_projector(model: MeasurementModel) -> HermitianOperator:
    """M = V V^H, the projector onto the correlated pairs |a_i> (x) |pointer_i>.

    Eigenvalue 1 means the pointer correctly indicates the system outcome
    ("the measurement has happened"); rank equals n_outcomes. It maps each
    matched pair to itself, every mismatched pair to zero, and any product
    state whose apparatus factor is orthogonal to all pointer states to
    zero.
    """
    v = _pair_columns(model)
    return HermitianOperator(model.joint_dims, v @ v.conj().T)


def rate_operator(model: MeasurementModel, hamiltonian: HermitianOperator) -> HermitianOperator:
    """i[H, M] for M the happened projector: the time density generator.

    With hbar = 1 this is Hermitian and satisfies
    d/dt <psi(t)|M|psi(t)> = <psi(t)| i[H, M] |psi(t)> exactly.
    X = (H V) V^H is H M and M H = X^H, so i[H, M] = i(X - X^H), in O(D^2 n).
    """
    if hamiltonian.dims != model.joint_dims:
        raise DimensionMismatch(f"H dims {hamiltonian.dims} != joint dims {model.joint_dims}")
    v = _pair_columns(model)
    x = (hamiltonian.matrix @ v) @ v.conj().T
    x -= x.conj().T
    x *= 1j
    return HermitianOperator(model.joint_dims, x)


def happened_probability(model: MeasurementModel, psi: StateVector) -> float:
    """Probability that the measurement has happened in state psi."""
    value = expectation(happened_projector(model), psi)
    if not -TOL.probability <= value <= 1.0 + TOL.probability:
        raise NumericalError(f"happened probability {value!r} outside [0, 1]")
    return value


def premeasurement_check(model: MeasurementModel) -> np.ndarray:
    """Evolve each |a_i> (x) |ready> for the nominal duration and score it.

    Returns the (n,) fidelities |<a_i, pointer_i | psi(T)>|^2, one per
    outcome. H keeps the system in |a_i>, so this is the overlap
    of pointer_i with |ready> evolved under H_i alone, all branches at once.
    Diagnostic only: it never raises on a bad model.
    """
    ready = np.tile(model.pointer_frame[:, 0], (model.n_outcomes, 1))
    spectra = model.branch_spectra
    _, propagate = _propagator(spectra, ready, spectra.eigenvectors)
    evolved = propagate(np.array([model.nominal_duration]))
    check_unit_norm(evolved[..., 0].T)
    overlaps = model.pointer_frame.T[1:, None, :].conj() @ evolved
    return np.abs(overlaps.ravel()) ** 2


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Biorthogonal form of a bipartite pure state: sum_k c_k |l_k> (x) |r_k>."""

    coefficients: np.ndarray
    left_vectors: tuple[StateVector, ...]
    right_vectors: tuple[StateVector, ...]

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=np.float64).reshape(-1)
        if not (coeffs.size == len(self.left_vectors) == len(self.right_vectors)):
            raise DimensionMismatch("coefficients and vector lists must have equal length")
        if np.any(coeffs < 0) or np.any(np.diff(coeffs) > 0):
            raise NumericalError("coefficients must be nonnegative and descending")
        total = float(np.sum(coeffs**2))
        if abs(total - 1.0) > TOL.orthonormality:
            raise NumericalError(f"squared coefficients sum to {total!r}, not 1")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "left_vectors", tuple(self.left_vectors))
        object.__setattr__(self, "right_vectors", tuple(self.right_vectors))


def schmidt_decompose(psi: StateVector, split: int) -> SchmidtDecomposition:
    """Schmidt decomposition across the bipartition dims[:split] | dims[split:].

    Singular values below the cutoff are dropped (at least one is kept).
    Each kept pair is phase-normalized so the largest-magnitude entry of
    the left vector is real positive; exactly degenerate coefficients are
    ordered by descending lexicographic comparison of the left vectors'
    (Re, Im) entry pairs, which makes the output deterministic.
    """
    if not 0 < split < len(psi.dims):
        raise DimensionMismatch(
            f"split {split} must leave at least one factor on each side of {psi.dims}"
        )
    d_left = math.prod(psi.dims[:split])
    d_right = math.prod(psi.dims[split:])
    matrix = psi.amplitudes.reshape(d_left, d_right)
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

    left = tuple(StateVector(psi.dims[:split], u[:, k]) for k in range(keep))
    right = tuple(StateVector(psi.dims[split:], vh[k, :]) for k in range(keep))
    dec = SchmidtDecomposition(s, left, right)

    recon = ((u * s) @ vh).ravel()
    err = float(np.linalg.norm(recon - psi.amplitudes))
    if err > TOL.schmidt_reconstruction:
        raise NumericalError(f"Schmidt reconstruction off by {err:.3e}")
    return dec
