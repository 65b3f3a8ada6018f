"""Unitary Schrodinger evolution under a time-independent Hamiltonian.

Evolution is computed from one exact spectral decomposition rather than a
step-wise integrator, which keeps integrator error out of every downstream
tolerance. Trajectories evaluate the grid in blocks of points, because one
dimension x points array for the whole grid would dominate peak memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NumericalError
from .hilbert import (
    HermitianOperator, SpectralDecomposition, StateVector, check_unit_norm, expectations, spectral,
)
from .tolerances import TOL

# Complex amplitudes held per block of grid points in ``trajectory``.
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
        if np.any(prob < -slack) or np.any(prob > 1.0 + slack):
            raise NumericalError("probability curve leaves [0, 1] beyond tolerance")
        prob.setflags(write=False)
        rate.setflags(write=False)
        object.__setattr__(self, "prob_happened", prob)
        object.__setattr__(self, "rate", rate)


def _propagate(dec: SpectralDecomposition, psi0: StateVector, times: np.ndarray) -> np.ndarray:
    """Amplitude columns exp(-iHt) psi0, one per entry of times."""
    coeffs = dec.eigenvectors.conj().T @ psi0.amplitudes
    phases = np.exp(-1j * np.multiply.outer(dec.eigenvalues, times))
    return dec.eigenvectors @ (phases * coeffs[:, None])


def evolve(hamiltonian: HermitianOperator, psi0: StateVector, t: float) -> StateVector:
    """exp(-iHt) psi0 via the spectral decomposition of H."""
    if hamiltonian.dims != psi0.dims:
        raise DimensionMismatch(f"H dims {hamiltonian.dims} != state dims {psi0.dims}")
    amps = _propagate(spectral(hamiltonian), psi0, np.array([t]))
    return StateVector(psi0.dims, amps[:, 0])


def trajectory(
    hamiltonian: HermitianOperator,
    psi0: StateVector,
    grid: TimeGrid,
    happened_op: HermitianOperator,
    rate_op: HermitianOperator,
) -> TimingTrajectory:
    """Sample <happened_op> and <rate_op> in psi(t) on every grid point.

    One spectral decomposition of H is reused for all points, so there is
    no error accumulation between samples. Points are evaluated in blocks
    of at most BLOCK_AMPLITUDES amplitudes, each state checked for unit norm.
    """
    for op in (happened_op, rate_op):
        if op.dims != hamiltonian.dims:
            raise DimensionMismatch(f"operator dims {op.dims} != H dims {hamiltonian.dims}")
    if psi0.dims != hamiltonian.dims:
        raise DimensionMismatch(f"state dims {psi0.dims} != H dims {hamiltonian.dims}")

    dec = spectral(hamiltonian)
    times = grid.times
    prob = np.empty(times.size)
    rate = np.empty(times.size)
    block = max(1, BLOCK_AMPLITUDES // psi0.dim)
    for start in range(0, times.size, block):
        points = slice(start, start + block)
        states = _propagate(dec, psi0, times[points])
        check_unit_norm(states)
        prob[points] = expectations(happened_op, states)
        rate[points] = expectations(rate_op, states)
    return TimingTrajectory(grid, prob, rate)
