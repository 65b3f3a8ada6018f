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
(n, s, s) stack of blocks, in closed form for the canonical models, where
s = 2, and one stacked eigh otherwise). ``trajectory``,
the model's premeasurement check and sampling run one kernel, amplitudes in
and evolved amplitudes out. o_i lies on C_i, so P = sum_i |<o_i|phi_i>|^2 is
an overlap taken there, and p comes from i[H_i, |o_i><o_i|], built there
from o_i and H_i o_i: O(n s^2) per point, not O(n d^2). The states are never
formed whole, so ``trajectory`` keeps their norm by invariants instead of
measuring it. Trajectories take the grid in blocks, as one dimension x
points array would dominate memory.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NumericalError
from .hilbert import (BLOCK_BYTES, HermitianOperator, Record, SpectralDecomposition,
                      StateVector, ValueRecord, _freeze, expectations, spectral)
from .tolerances import TOL

if TYPE_CHECKING:
    from .measurement import MeasurementModel


class TimeGrid(ValueRecord):
    """Uniform time grid on [t_start, t_end], both endpoints included, of n_points points."""

    __slots__ = ("t_start", "t_end", "n_points")

    def __post_init__(self):
        if not isinstance(self.n_points, numbers.Integral):
            raise InvalidParameter(f"n_points must be an integer, got {self.n_points!r}")
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
        object.__setattr__(self, "prob_happened", _freeze(prob))
        object.__setattr__(self, "rate", _freeze(rate))


def _propagator(dec: SpectralDecomposition, amplitudes: np.ndarray):
    """Eigenbasis coefficients c of amplitudes[b], and a map from times to the evolved amplitudes.

    The map returns the (..., s, k) V[b] @ (exp(-i lambda t) c[b]), V[b] the
    eigenvectors of H_b in dec, exponentiating every eigenvalue at every time,
    so exp(-i H_b t) amplitudes[b] at each time; it raises NumericalError
    unless every phase is unimodular, which also catches an overflowing lambda t.
    """
    coeffs = dec.eigenvectors.conj().swapaxes(-1, -2) @ amplitudes[..., None]

    def at(times: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            phases = -1j * np.multiply.outer(dec.eigenvalues, times)
            np.exp(phases, out=phases)
        dev = float(np.max(np.abs(np.abs(phases) - 1.0)))
        if not dev <= TOL.norm:  # NaN fails too
            raise NumericalError(f"phase exp(-i lambda t) deviates from modulus 1 by {dev:.3e}")
        phases *= coeffs
        return dec.eigenvectors @ phases

    return coeffs, at


def evolve(hamiltonian: HermitianOperator, psi0: StateVector, t: float) -> StateVector:
    """exp(-iHt) psi0 via the spectral decomposition of H."""
    if hamiltonian.dims != psi0.dims:
        raise DimensionMismatch(f"H dims {hamiltonian.dims} != state dims {psi0.dims}")
    _, propagate = _propagator(spectral(hamiltonian.matrix), psi0.amplitudes)
    return StateVector(psi0.dims, propagate(np.array([t]))[:, 0])


def trajectory(model: MeasurementModel, branches: np.ndarray, grid: TimeGrid) -> TimingTrajectory:
    """P(t) and p(t) of the model on every grid point, starting from the branch rows.

    Row i of the (n, d) ``branches`` is chi_i = (<a_i| (x) I) psi(0), as
    ``scenario_io.initial_state`` returns it. Branch i of psi(t) is
    phi_i(t) = exp(-i H_i t) chi_i, so P = sum_i |<o_i|phi_i>|^2 and
    p = sum_i <phi_i| i[H_i, |o_i><o_i|] |phi_i>. o_i and the rate operator,
    built from o_i and H_i o_i, lie within the block C_i of branch i, so only
    the block of phi_i is formed.
    The model's one spectral decomposition of the blocks serves all points,
    so there is no error accumulation between samples. Points are evaluated
    in blocks, all branches at once, as many as evolve BLOCK_BYTES of block
    amplitudes and never fewer than two, so a point's value does not depend
    on the rest of the grid. The eigenbasis coefficients and the entries of
    chi_i off C_i, which do not evolve, must have total weight 1 and every
    phase modulus 1; with orthonormal eigenvectors that makes every state
    unit-norm.
    """
    chi = model.on_blocks(branches)
    o = model.on_blocks(model.pointer_frame.T[1:])[:, :, None]
    bras = o.conj().transpose(0, 2, 1)
    # On C_i, X = (H_i |o_i>) <o_i| is H_i |o_i><o_i| and X^H is
    # |o_i><o_i| H_i, so rate_ops[i] = i[H_i, |o_i><o_i|] = i(X - X^H).
    rate_ops = (model.branch_blocks @ o) @ bras
    rate_ops -= rate_ops.conj().transpose(0, 2, 1)
    rate_ops *= 1j

    coeffs, propagate = _propagator(model.branch_spectra, chi)
    off_blocks = np.sum(np.abs(branches) ** 2) - np.sum(np.abs(chi) ** 2)
    weight = float(np.sum(np.abs(coeffs) ** 2) + off_blocks)
    if not abs(weight - 1.0) <= TOL.norm:  # NaN fails too
        raise NumericalError(f"eigenbasis coefficients have total weight {weight!r}, not 1")

    times = grid.times
    prob = np.empty(times.size)
    rate = np.empty(times.size)
    # A one-point block would take numpy's matrix-vector path, which rounds
    # otherwise; the last block takes the remainder, up to one point more.
    edges = [*range(0, times.size - 1, max(2, BLOCK_BYTES // chi.nbytes)), times.size]
    for points in map(slice, edges, edges[1:]):
        phis = propagate(times[points])
        a = (bras @ phis)[:, 0]
        prob[points] = (a.real**2 + a.imag**2).sum(axis=0)
        rate[points] = expectations(rate_ops, phis).sum(axis=0)
    return TimingTrajectory(grid, prob, rate)
