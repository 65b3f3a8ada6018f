"""Unitary Schrodinger evolution under a time-independent Hamiltonian.

Evolution is computed from exact spectral decompositions rather than a
step-wise integrator, which keeps integrator error out of every downstream
tolerance. ``evolve`` takes any Hamiltonian on the joint space and
diagonalises it whole. A measurement model's own H = sum_i |a_i><a_i| (x) H_i
never mixes system branches, so ``trajectory`` and ``evolve_branches`` split
the state into its branches and evolve each under its apparatus Hamiltonian
H_i. Trajectories evaluate the grid in blocks of points, because one
dimension x points array for the whole grid would dominate peak memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NumericalError
from .hilbert import (
    HermitianOperator, SpectralDecomposition, StateVector, check_unit_norm, commutator,
    expectations, projector_onto, spectral,
)
from .tolerances import TOL

if TYPE_CHECKING:
    from .measurement import MeasurementModel

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


def _propagate(dec: SpectralDecomposition, amplitudes: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Amplitude columns exp(-iHt) amplitudes, one per entry of times."""
    coeffs = dec.eigenvectors.conj().T @ amplitudes
    phases = np.exp(-1j * np.multiply.outer(dec.eigenvalues, times))
    return dec.eigenvectors @ (phases * coeffs[:, None])


def evolve(hamiltonian: HermitianOperator, psi0: StateVector, t: float) -> StateVector:
    """exp(-iHt) psi0 via the spectral decomposition of H."""
    if hamiltonian.dims != psi0.dims:
        raise DimensionMismatch(f"H dims {hamiltonian.dims} != state dims {psi0.dims}")
    amps = _propagate(spectral(hamiltonian), psi0.amplitudes, np.array([t]))
    return StateVector(psi0.dims, amps[:, 0])


def _branch_components(model: MeasurementModel, psi0: StateVector) -> np.ndarray:
    """Row i is chi_i = (<a_i| (x) I) psi0; the system frame is complete, so any psi0 splits."""
    if psi0.dims != model.joint_dims:
        raise DimensionMismatch(f"state dims {psi0.dims} != joint dims {model.joint_dims}")
    return model.system_frame.conj().T @ psi0.amplitudes.reshape(model.joint_dims)


def evolve_branches(model: MeasurementModel, psi0: StateVector, t: float) -> StateVector:
    """exp(-iHt) psi0 for the model's own H, each branch evolved under its H_i."""
    branches = [
        _propagate(spectral(h_i), chi_i, np.array([t]))[:, 0]
        for h_i, chi_i in zip(model.branch_hamiltonians, _branch_components(model, psi0))
    ]
    return StateVector(psi0.dims, model.system_frame @ np.array(branches))


def trajectory(model: MeasurementModel, psi0: StateVector, grid: TimeGrid) -> TimingTrajectory:
    """P(t) and p(t) of the model on every grid point, starting from psi0.

    Branch i of psi(t) is phi_i(t) = exp(-i H_i t) chi_i, so
    P = sum_i |<o_i|phi_i>|^2 and p = sum_i <phi_i| i[H_i, |o_i><o_i|] |phi_i>.
    One spectral decomposition per H_i is reused for all points, so there
    is no error accumulation between samples. Points are evaluated in
    blocks of at most BLOCK_AMPLITUDES joint amplitudes, each state checked
    for unit norm.
    """
    components = _branch_components(model, psi0)
    decs = [spectral(h_i) for h_i in model.branch_hamiltonians]
    happened_ops = [projector_onto([o_i]) for o_i in model.pointer_states]
    rate_ops = [
        HermitianOperator(h_i.dims, 1j * commutator(h_i, m_i))
        for h_i, m_i in zip(model.branch_hamiltonians, happened_ops)
    ]

    times = grid.times
    prob = np.zeros(times.size)
    rate = np.zeros(times.size)
    block = max(1, BLOCK_AMPLITUDES // psi0.dim)
    for start in range(0, times.size, block):
        points = slice(start, start + block)
        branches = np.stack(
            [_propagate(dec, chi_i, times[points]) for dec, chi_i in zip(decs, components)]
        )
        check_unit_norm(branches.reshape(psi0.dim, -1))
        for phi_i, m_i, r_i in zip(branches, happened_ops, rate_ops):
            prob[points] += expectations(m_i, phi_i)
            rate[points] += expectations(r_i, phi_i)
    return TimingTrajectory(grid, prob, rate)
