"""System-apparatus measurement models and the measurement-timing operators.

A measurement model couples a system with n distinguishable outcomes to an
apparatus whose pointer moves from a ready state into one of n orthogonal
pointer states. Every model is a von Neumann premeasurement,
H = sum_i |a_i><a_i| (x) H_i, and is stored as its branch Hamiltonians H_i
on the apparatus space; the dense joint H is built only on demand. The model
diagonalises each H_i once (``branch_spectra``) and stacks its pointer frame
(``pointer_frame``) for every branch-form computation to share. The
projector M onto the perfectly correlated system-pointer subspace answers
"has the measurement happened" (eigenvalue 1 = yes); its expectation in
psi(t) is the probability that it has happened by time t, and i[H, .] of
it gives the time density of the happening. On system branch i, M is
|pointer_i><pointer_i|, so P, p and ``check``'s projector check are computed
in branch form; ``happened_projector`` and ``rate_operator`` build M and
i[H, M] as dense joint-space operators, for tests with arbitrary H.
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
    basis_state,
    check_orthonormal,
    check_unit_norm,
    expectation,
    projector_onto,
    spectral,
    tensor_state,
)
from .tolerances import TOL


def _check_frame(states, dim: int, what: str) -> None:
    if any(s.dims != (dim,) for s in states):
        raise DimensionMismatch(f"{what} must live on a single factor of dimension {dim}")
    check_orthonormal(np.column_stack([s.amplitudes for s in states]), NumericalError, what)


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """An n-outcome system coupled to a pointer apparatus.

    The system eigenbasis must be complete (system_dim == n_outcomes) so
    that a joint q/pointer measurement has a total outcome probability of
    one. The pointer frame {ready} + {pointer_states} is orthonormal but
    need not span the apparatus space. ``branch_hamiltonians[i]`` is H_i,
    the apparatus Hamiltonian that acts while the system is in
    ``system_eigenstates[i]``. ``fidelity`` is the premeasurement
    fidelity the model claims to reach at ``nominal_duration`` (worst
    outcome branch); ``premeasurement_check`` verifies it.
    """

    n_outcomes: int
    system_dim: int
    apparatus_dim: int
    system_eigenstates: tuple[StateVector, ...]
    pointer_ready: StateVector
    pointer_states: tuple[StateVector, ...]
    branch_hamiltonians: tuple[HermitianOperator, ...]
    nominal_duration: float
    fidelity: float

    def __post_init__(self):
        n = self.n_outcomes
        if n < 2:
            raise InvalidParameter(f"need at least 2 outcomes, got {n}")
        if self.system_dim != n:
            raise InvalidParameter(
                f"system eigenbasis must be complete: system_dim {self.system_dim} != {n}"
            )
        if not (len(self.system_eigenstates) == len(self.pointer_states)
                == len(self.branch_hamiltonians) == n):
            raise InvalidParameter(
                "need n system eigenstates, pointer states and branch Hamiltonians"
            )
        _check_frame(self.system_eigenstates, self.system_dim, "system eigenstates")
        _check_frame(
            (self.pointer_ready, *self.pointer_states), self.apparatus_dim,
            "pointer frame (ready + pointer states)",
        )
        if any(h.dims != (self.apparatus_dim,) for h in self.branch_hamiltonians):
            raise DimensionMismatch(
                f"branch Hamiltonians must act on the apparatus, dims ({self.apparatus_dim},)"
            )
        if not self.nominal_duration > 0:
            raise InvalidParameter("nominal_duration must be positive")
        if not 0.0 <= self.fidelity <= 1.0 + TOL.probability:
            raise InvalidParameter(f"declared fidelity {self.fidelity} outside [0, 1]")
        object.__setattr__(self, "system_eigenstates", tuple(self.system_eigenstates))
        object.__setattr__(self, "pointer_states", tuple(self.pointer_states))
        object.__setattr__(self, "branch_hamiltonians", tuple(self.branch_hamiltonians))

    @property
    def joint_dims(self) -> tuple[int, int]:
        return (self.system_dim, self.apparatus_dim)

    @property
    def system_frame(self) -> np.ndarray:
        """The system eigenstates as the columns of a unitary matrix."""
        return np.column_stack([a.amplitudes for a in self.system_eigenstates])

    def branch_components(self, psi: StateVector) -> np.ndarray:
        """Row i is chi_i = (<a_i| (x) I) psi; the system frame is complete, so any psi splits."""
        if psi.dims != self.joint_dims:
            raise DimensionMismatch(f"state dims {psi.dims} != joint dims {self.joint_dims}")
        return self.system_frame.conj().T @ psi.amplitudes.reshape(self.joint_dims)

    @property
    def pointer_frame(self) -> np.ndarray:
        """Columns |ready>, then the pointer states: column i + 1 is pointer i."""
        return np.column_stack([o.amplitudes for o in (self.pointer_ready, *self.pointer_states)])

    @cached_property
    def branch_spectra(self) -> tuple[SpectralDecomposition, ...]:
        """spectral(H_i) for every branch, computed on first use and shared by all callers."""
        return tuple(spectral(h_i) for h_i in self.branch_hamiltonians)

    @cached_property
    def interaction_hamiltonian(self) -> HermitianOperator:
        """The dense joint H = sum_i |a_i><a_i| (x) H_i, built on first use."""
        frame = self.system_frame
        # weights[a, b, i] = <a|a_i><a_i|b>; one product with the stacked H_i
        # gives joint[a, x, b, y] = sum_i weights[a, b, i] H_i[x, y].
        weights = frame[:, None, :] * frame.conj()[None, :, :]
        stacked = np.stack([h.matrix for h in self.branch_hamiltonians])
        joint = np.tensordot(weights, stacked, axes=1).transpose(0, 2, 1, 3)
        side = self.system_dim * self.apparatus_dim
        return HermitianOperator(self.joint_dims, joint.reshape(side, side))


def _exchange_generator(dim: int, ready: int, pointer: int) -> np.ndarray:
    # i(|pointer><ready| - |ready><pointer|): rotates ready -> pointer with
    # a +sin amplitude under exp(-iHt).
    h = np.zeros((dim, dim), dtype=np.complex128)
    h[pointer, ready] = 1j
    h[ready, pointer] = -1j
    return h


def _build_canonical_model(n: int, g: float, epsilon: float) -> MeasurementModel:
    if n < 2:
        raise InvalidParameter(f"need at least 2 outcomes, got {n}")
    if not g > 0:
        raise InvalidParameter(f"coupling must be positive, got {g}")
    if not 0.0 <= epsilon < 1.0:
        raise InvalidParameter(f"epsilon must lie in [0, 1), got {epsilon}")
    couplings = np.full(n, float(g))
    couplings[0] = g * (1.0 - epsilon)
    system = [basis_state(n, i) for i in range(n)]
    ready = basis_state(n + 1, 0)
    pointers = [basis_state(n + 1, i + 1) for i in range(n)]
    branches = tuple(
        HermitianOperator((n + 1,), couplings[i] * _exchange_generator(n + 1, 0, i + 1))
        for i in range(n)
    )

    duration = math.pi / (2.0 * g)
    if not (math.isfinite(duration) and duration > 0):
        raise InvalidParameter(f"coupling {g} gives nominal duration {duration}, not finite > 0")
    # Each branch rotates by couplings[i] * duration; worst branch sets the fidelity.
    fidelity = float(min(math.sin(c * duration) ** 2 for c in couplings))
    return MeasurementModel(
        n_outcomes=n,
        system_dim=n,
        apparatus_dim=n + 1,
        system_eigenstates=tuple(system),
        pointer_ready=ready,
        pointer_states=tuple(pointers),
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


def happened_projector(model: MeasurementModel) -> HermitianOperator:
    """Projector onto the correlated pairs |a_i> (x) |pointer_i>.

    Eigenvalue 1 means the pointer correctly indicates the system outcome
    ("the measurement has happened"); rank equals n_outcomes. It maps each
    matched pair to itself, every mismatched pair to zero, and any product
    state whose apparatus factor is orthogonal to all pointer states to
    zero.
    """
    pairs = [
        tensor_state(a, o)
        for a, o in zip(model.system_eigenstates, model.pointer_states)
    ]
    return projector_onto(pairs)


def rate_operator(model: MeasurementModel, hamiltonian: HermitianOperator) -> HermitianOperator:
    """i[H, M] for M the happened projector: the time density generator.

    With hbar = 1 this is Hermitian and satisfies
    d/dt <psi(t)|M|psi(t)> = <psi(t)| i[H, M] |psi(t)> exactly.
    """
    m = happened_projector(model)
    if hamiltonian.dims != m.dims:
        raise DimensionMismatch(f"H dims {hamiltonian.dims} != joint dims {m.dims}")
    h = hamiltonian.matrix
    return HermitianOperator(m.dims, 1j * (h @ m.matrix - m.matrix @ h))


def happened_probability(model: MeasurementModel, psi: StateVector) -> float:
    """Probability that the measurement has happened in state psi."""
    value = expectation(happened_projector(model), psi)
    if not -TOL.probability <= value <= 1.0 + TOL.probability:
        raise NumericalError(f"happened probability {value!r} outside [0, 1]")
    return value


@dataclass(frozen=True)
class PremeasurementReport:
    """Per-outcome fidelities of the ready -> pointer evolution at nominal duration."""

    fidelities: tuple[float, ...]
    max_deviation: float

    def qualifies(self, threshold: float) -> bool:
        """True when every outcome branch reaches at least the given fidelity."""
        return all(f >= threshold for f in self.fidelities)


def premeasurement_check(model: MeasurementModel) -> PremeasurementReport:
    """Evolve each |a_i> (x) |ready> for the nominal duration and score it.

    Reports |<a_i, pointer_i | psi(T)>|^2 per outcome plus the worst
    deviation from 1. H keeps the system in |a_i>, so this is the overlap
    of pointer_i with |ready> evolved under H_i alone, all branches at once.
    Diagnostic only: it never raises on a bad model.
    """
    ready = np.tile(model.pointer_ready.amplitudes, (model.n_outcomes, 1))
    evolved = _propagator(model.branch_spectra, ready)(np.array([model.nominal_duration]))
    check_unit_norm(evolved[..., 0].T)
    overlaps = model.pointer_frame.T[1:, None, :].conj() @ evolved
    fidelities = tuple(float(f) for f in np.abs(overlaps.ravel()) ** 2)
    return PremeasurementReport(fidelities, max(1.0 - f for f in fidelities))


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
    u, s, vh = u[:, :keep].copy(), s[:keep].copy(), vh[:keep, :].copy()

    for k in range(keep):
        j = int(np.argmax(np.abs(u[:, k])))
        phase = u[j, k] / abs(u[j, k])
        u[:, k] *= phase.conjugate()
        vh[k, :] *= phase

    order = sorted(
        range(keep),
        key=lambda k: (-s[k], tuple((-z.real, -z.imag) for z in u[:, k])),
    )
    u, s, vh = u[:, order], s[order], vh[order, :]

    left = tuple(StateVector(psi.dims[:split], u[:, k]) for k in range(keep))
    right = tuple(StateVector(psi.dims[split:], vh[k, :]) for k in range(keep))
    dec = SchmidtDecomposition(s, left, right)

    recon = np.zeros_like(psi.amplitudes)
    for c, l, r in zip(dec.coefficients, left, right):
        recon = recon + c * np.kron(l.amplitudes, r.amplitudes)
    err = float(np.linalg.norm(recon - psi.amplitudes))
    if err > TOL.schmidt_reconstruction:
        raise NumericalError(f"Schmidt reconstruction off by {err:.3e}")
    return dec
