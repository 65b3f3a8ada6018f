"""Unitary Schrodinger evolution under a time-independent Hamiltonian.

Evolution is computed from exact spectral decompositions rather than a
step-wise integrator, which keeps integrator error out of every downstream
tolerance. ``evolve`` takes any Hamiltonian on the joint space and
diagonalises it whole. A measurement model's own H = sum_i |a_i><a_i| (x) H_i
never mixes system branches, so ``trajectory`` takes the state as its branch
rows, the (n, d) array whose row i is chi_i = (<a_i| (x) I) psi, and evolves
each under its H_i. H_i is stored on its block C_i of the apparatus
coordinates and is zero off it, so exp(-i H_i t) moves only the s entries of
chi_i on C_i, from the model's ``branch_spectra`` (one decomposition of the
(n, s, s) stack of blocks; s = 2 for the canonical models). ``trajectory``,
the model's premeasurement check and sampling run one kernel, which refuses
amplitudes not shaped like the spectra's eigenvalues: the coefficients in
each eigenbasis are computed once per call, each distinct eigenvalue is
exponentiated once per time, and only the rows the caller asks for are
formed. |o_i><o_i| and i[H_i, |o_i><o_i|] act within C_i, since o_i lies on
it, so ``trajectory`` builds both there from o_i and H_i o_i, and P and p
cost O(n s^2) per point, not O(n d^2). Its states are never formed whole,
so their norm is kept by invariants instead of measured: orthonormal
eigenvectors (``SpectralDecomposition``), coefficients and off-block
entries of total weight 1 (once per call) and phases of modulus 1 (once per
block of points, which also catches an overflowing lambda t). Trajectories
take the grid in blocks, as one dimension x points array would dominate
memory.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NumericalError
from .hilbert import (HermitianOperator, Record, SpectralDecomposition, StateVector, ValueRecord,
                      expectations, spectral)
from .tolerances import TOL

if TYPE_CHECKING:
    from .measurement import MeasurementModel

# Block size bounding temporaries: complex amplitudes held per block of grid
# points in ``trajectory``.
BLOCK_AMPLITUDES = 2**16


class TimeGrid(ValueRecord):
    """Uniform time grid on [t_start, t_end], both endpoints included, of n_points points."""

    __slots__ = ("t_start", "t_end", "n_points")

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


class TimingTrajectory(Record):
    """Measurement-timing curves sampled on a time grid.

    prob_happened[k] is the probability that the measurement has happened
    by times[k] of ``grid``; rate[k] is its time density.
    """

    __slots__ = ("grid", "prob_happened", "rate")

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

    ``rows`` are any (..., s, d) rows to form against the eigenvectors V of
    ``dec``: V itself for whole states or blocks, or <o_i| V_i for overlaps.
    The map returns rows[b] @ (exp(-i lambda t) c[b]), H_b in dec,
    exponentiating each distinct level once per time; it raises NumericalError
    unless every phase is unimodular, which also catches an overflowing lambda t.
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
    dec = spectral(hamiltonian.matrix)
    _, propagate = _propagator(dec, psi0.amplitudes, dec.eigenvectors)
    amps = propagate(np.array([t]))
    return StateVector(psi0.dims, amps[:, 0])


def trajectory(model: MeasurementModel, branches: np.ndarray, grid: TimeGrid) -> TimingTrajectory:
    """P(t) and p(t) of the model on every grid point, starting from the branch rows.

    Row i of the (n, d) ``branches`` is chi_i = (<a_i| (x) I) psi(0), as
    ``scenario_io.initial_state`` returns it. Branch i of psi(t) is
    phi_i(t) = exp(-i H_i t) chi_i, so
    P = sum_i |<o_i|phi_i>|^2 and p = sum_i <phi_i| i[H_i, |o_i><o_i|] |phi_i>.
    Both operators of branch i act within its block C_i, which holds o_i and
    H_i o_i, so they are built there, and only the block of phi_i is formed.
    The model's one spectral decomposition of the blocks serves all points,
    so there is no error accumulation between samples. Points are evaluated
    in blocks of at most BLOCK_AMPLITUDES joint amplitudes, all branches at
    once. The eigenbasis coefficients and the entries of chi_i off C_i, which
    do not evolve, must have total weight 1 and every phase modulus 1; with
    orthonormal eigenvectors that makes every state unit-norm.
    """
    spectra = model.branch_spectra
    chi = model.on_blocks(branches)
    o = model.on_blocks(model.pointer_frame.T[1:])[:, :, None]
    bras = o.conj().transpose(0, 2, 1)
    # On C_i, happened[i] = |o_i><o_i|. X = (H_i |o_i>) <o_i| is H_i |o_i><o_i| and
    # X^H is |o_i><o_i| H_i, so rate_ops[i] = i[H_i, |o_i><o_i|] = i(X - X^H).
    happened = o @ bras
    rate_ops = (model.branch_blocks @ o) @ bras
    rate_ops -= rate_ops.conj().transpose(0, 2, 1)
    rate_ops *= 1j

    coeffs, propagate = _propagator(spectra, chi, spectra.eigenvectors)
    off_blocks = np.sum(np.abs(branches) ** 2) - np.sum(np.abs(chi) ** 2)
    weight = float(np.sum(np.abs(coeffs) ** 2) + off_blocks)
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
