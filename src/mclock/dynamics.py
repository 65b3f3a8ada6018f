"""Unitary Schrodinger evolution under a time-independent Hamiltonian.

Evolution is computed from exact spectral decompositions rather than a
step-wise integrator, which keeps integrator error out of every downstream
tolerance. ``evolve`` takes any Hamiltonian on the joint space and
diagonalises it whole. A measurement model's own H = sum_i |a_i><a_i| (x) H_i
never mixes system branches, so ``trajectory`` takes the state as its branch
rows, the (n, d) array whose row i is chi_i = (<a_i| (x) I) psi, and evolves
each under its H_i, from the model's ``branch_spectra`` (one decomposition of
the (n, d, d) stack). Both, and the model's premeasurement check and
sampling, run one kernel, which refuses amplitudes not shaped like the
spectra's eigenvalues: the coefficients in each eigenbasis are computed once
per call, each distinct eigenvalue is exponentiated once per time, and only
the eigenvector rows the caller asks for are formed. ``trajectory`` asks for
the support rows of each branch, the rows on which |o_i><o_i| and
i[H_i, |o_i><o_i|] act (2 of the n + 1 for the canonical models), so P and p
cost O(n s d) per point for the largest support s, not O(n d^2). Its states are never formed whole, so their norm
is kept by invariants instead of measured: the eigenvectors are orthonormal
(``SpectralDecomposition``), the coefficients have total weight 1 (once per
call) and every phase has modulus 1 (once per block of points, which also
catches an overflowing lambda t). Trajectories take the grid in blocks, as
one dimension x points array would dominate memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NumericalError
from .hilbert import HermitianOperator, SpectralDecomposition, StateVector, expectations, spectral
from .tolerances import TOL

if TYPE_CHECKING:
    from .measurement import MeasurementModel

# Block size bounding temporaries: complex amplitudes held per block of grid
# points in ``trajectory``, and uniforms drawn per block in
# ``operational.sample_trials``.
BLOCK_AMPLITUDES = 2**16


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [t_start, t_end], both endpoints included."""

    t_start: float
    t_end: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 2:
            raise InvalidParameter(f"n_points must be >= 2, got {self.n_points}")
        if not self.t_end > self.t_start:
            raise InvalidParameter(f"t_end ({self.t_end}) must exceed t_start ({self.t_start})")
        span = self.t_end - self.t_start
        if not (math.isfinite(span) and self.step > 0):
            raise InvalidParameter(f"grid span {span} and step {self.step} must be finite and > 0")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_points)

    @property
    def step(self) -> float:
        return (self.t_end - self.t_start) / (self.n_points - 1)


@dataclass(frozen=True, eq=False)
class TimingTrajectory:
    """Measurement-timing curves sampled on a time grid.

    prob_happened[k] is the probability that the measurement has happened
    by times[k]; rate[k] is its time density.
    """

    grid: TimeGrid
    prob_happened: np.ndarray
    rate: np.ndarray

    def __post_init__(self):
        prob = np.array(self.prob_happened, dtype=np.float64).reshape(-1)
        rate = np.array(self.rate, dtype=np.float64).reshape(-1)
        n = self.grid.n_points
        if not (prob.size == rate.size == n):
            raise DimensionMismatch("prob_happened and rate must both have n_points entries")
        slack = TOL.trajectory_prob
        if not np.all((prob >= -slack) & (prob <= 1.0 + slack)):  # NaN fails too
            raise NumericalError("probability curve leaves [0, 1] beyond tolerance")
        if not np.all(np.isfinite(rate)):
            raise NumericalError("rate curve is not finite")
        prob.setflags(write=False)
        rate.setflags(write=False)
        object.__setattr__(self, "prob_happened", prob)
        object.__setattr__(self, "rate", rate)


def _propagator(dec: SpectralDecomposition, amplitudes: np.ndarray, rows: np.ndarray):
    """Eigenbasis coefficients c of amplitudes[b], and a map from times to the (..., s, k) rows.

    ``rows`` holds the eigenvector rows to form: the (..., d, d) eigenvectors
    of ``dec`` for whole states, or a (..., s, d) gather of them. The map
    returns rows[b] @ (exp(-i lambda t) c[b]), H_b in dec, exponentiating each
    distinct level once per time; it raises NumericalError unless every
    phase is unimodular, which also catches an overflowing lambda t.
    Raises DimensionMismatch unless amplitudes has the shape of dec.eigenvalues.
    """
    if amplitudes.shape != dec.eigenvalues.shape:
        raise DimensionMismatch(
            f"amplitudes {amplitudes.shape} do not match the spectra {dec.eigenvalues.shape}"
        )
    levels, index = np.unique(dec.eigenvalues, return_inverse=True)
    index = index.reshape(dec.eigenvalues.shape)
    coeffs = dec.eigenvectors.conj().swapaxes(-1, -2) @ amplitudes[..., None]

    def at(times: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            phases = -1j * np.multiply.outer(levels, times)
            np.exp(phases, out=phases)
        dev = float(np.max(np.abs(np.abs(phases) - 1.0)))
        if not dev <= TOL.norm:  # NaN fails too
            raise NumericalError(f"phase exp(-i lambda t) deviates from modulus 1 by {dev:.3e}")
        amps = phases[index]
        amps *= coeffs
        return rows @ amps

    return coeffs, at


def evolve(hamiltonian: HermitianOperator, psi0: StateVector, t: float) -> StateVector:
    """exp(-iHt) psi0 via the spectral decomposition of H."""
    if hamiltonian.dims != psi0.dims:
        raise DimensionMismatch(f"H dims {hamiltonian.dims} != state dims {psi0.dims}")
    dec = spectral(hamiltonian)
    _, propagate = _propagator(dec, psi0.amplitudes, dec.eigenvectors)
    amps = propagate(np.array([t]))
    return StateVector(psi0.dims, amps[:, 0])


def trajectory(model: MeasurementModel, branches: np.ndarray, grid: TimeGrid) -> TimingTrajectory:
    """P(t) and p(t) of the model on every grid point, starting from the branch rows.

    Row i of the (n, d) ``branches`` is chi_i = (<a_i| (x) I) psi(0), as
    ``scenario_io.initial_state`` returns it. Branch i of psi(t) is
    phi_i(t) = exp(-i H_i t) chi_i, so
    P = sum_i |<o_i|phi_i>|^2 and p = sum_i <phi_i| i[H_i, |o_i><o_i|] |phi_i>.
    Both operators of branch i vanish outside the rows and columns
    S_i = supp(o_i) u supp(H_i o_i), so only those rows of phi_i are formed,
    padded to the largest support. The model's one spectral decomposition
    per H_i serves all points, so there is no error accumulation between
    samples. Points are evaluated in blocks of at most BLOCK_AMPLITUDES joint
    amplitudes, all branches at once. The eigenbasis coefficients must have
    total weight 1 and every phase modulus 1; with orthonormal eigenvectors
    that makes every state unit-norm.
    """
    spectra = model.branch_spectra
    h = model.branch_hamiltonians
    pointers = model.pointer_frame.T[1:, :, None]
    bras = pointers.conj().transpose(0, 2, 1)
    # happened[i] = |o_i><o_i|. X = (H_i |o_i>) <o_i| is H_i |o_i><o_i| and X^H
    # is |o_i><o_i| H_i, so rate_ops[i] = i[H_i, |o_i><o_i|] = i(X - X^H), in O(n d^2).
    happened = pointers @ bras
    rate_ops = (h @ pointers) @ bras
    rate_ops -= rate_ops.conj().transpose(0, 2, 1)
    rate_ops *= 1j

    # Support rows first, in ascending order, padded with other rows to s.
    # Columns count too, so the mask does not rely on a symmetric zero pattern.
    nonzero = (happened != 0) | (rate_ops != 0)
    support = nonzero.any(axis=2) | nonzero.any(axis=1)
    s = int(support.sum(axis=1).max())
    idx = np.argsort(~support, axis=1, kind="stable")[:, :s, None]
    rows = np.take_along_axis(spectra.eigenvectors, idx, axis=1)
    cols = idx.transpose(0, 2, 1)
    happened = np.take_along_axis(np.take_along_axis(happened, idx, axis=1), cols, axis=2)
    rate_ops = np.take_along_axis(np.take_along_axis(rate_ops, idx, axis=1), cols, axis=2)

    coeffs, propagate = _propagator(spectra, branches, rows)
    weight = float(np.sum(np.abs(coeffs) ** 2))
    if not abs(weight - 1.0) <= TOL.norm:  # NaN fails too
        raise NumericalError(f"eigenbasis coefficients have total weight {weight!r}, not 1")

    times = grid.times
    prob = np.empty(times.size)
    rate = np.empty(times.size)
    block = max(1, BLOCK_AMPLITUDES // branches.size)
    for start in range(0, times.size, block):
        points = slice(start, start + block)
        phis = propagate(times[points])
        prob[points] = expectations(happened, phis).sum(axis=0)
        rate[points] = expectations(rate_ops, phis).sum(axis=0)
    return TimingTrajectory(grid, prob, rate)
