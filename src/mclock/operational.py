"""Operational verification of the measurement-timing probability.

At a chosen time an external observer measures the system variable and the
pointer position jointly (they commute). A trial is Case 1 when the
pointer sits in the position matched to the observed outcome, Case 2
otherwise. The Case-1 frequency over many trials estimates the happened
probability; the exact identity between the matched-pair mass and the
projector expectation is what makes the operator and operational
definitions agree.

Pointer outcome encoding: 0 is the ready state, j in 1..n is the pointer
state for outcome j, and n+1 is the residual bucket collecting apparatus
components outside the pointer frame. The match for q outcome i (0-based)
is pointer index i+1; every non-matched outcome counts as Case 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import evolve_branches
from .errors import DimensionMismatch, InvalidParameter, NumericalError
from .hilbert import StateVector
from .measurement import MeasurementModel, happened_probability
from .tolerances import TOL

# Sampling draws one uniform per trial and inverts the cumulative
# distribution; the generator is numpy's seeded PCG64.
RNG_ALGORITHM = "numpy-pcg64/inverse-cdf"


@dataclass(frozen=True)
class JointOutcome:
    q_index: int
    pointer_index: int
    probability: float


@dataclass(frozen=True, eq=False)
class JointOutcomeDistribution:
    """Born-rule probabilities over (system outcome, pointer position) pairs."""

    n_outcomes: int
    entries: tuple[JointOutcome, ...]

    def __post_init__(self):
        if any(e.probability < 0 for e in self.entries):
            raise NumericalError("joint probabilities must be nonnegative")
        total = sum(e.probability for e in self.entries)
        if abs(total - 1.0) > TOL.distribution_sum:
            raise NumericalError(f"joint probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "entries", tuple(self.entries))

    def matched_probability(self) -> float:
        """Total mass on Case-1 pairs (pointer index == q index + 1)."""
        return sum(e.probability for e in self.entries if e.pointer_index == e.q_index + 1)


@dataclass(frozen=True)
class EstimateReport:
    """Binomial estimate of the happened probability from repeated trials."""

    t: float
    n_trials: int
    case1_count: int
    estimate: float
    std_error: float
    exact_prob: float
    rng_algorithm: str = RNG_ALGORITHM


def joint_distribution(model: MeasurementModel, psi: StateVector) -> JointOutcomeDistribution:
    """Probabilities of every (q outcome, pointer position) pair in psi.

    Entries cover, per outcome, the ready state, all n pointer states and
    the residual complement, so they always sum to one. The matched-pair
    mass equals happened_probability(model, psi) identically; this is the
    operational/operator equivalence.
    """
    if psi.dims != model.joint_dims:
        raise DimensionMismatch(f"state dims {psi.dims} != joint dims {model.joint_dims}")
    n = model.n_outcomes
    amps = psi.amplitudes.reshape(model.system_dim, model.apparatus_dim)

    app_frame = np.column_stack(
        [model.pointer_ready.amplitudes]
        + [p.amplitudes for p in model.pointer_states]
    )
    in_sys_basis = model.system_frame.conj().T @ amps  # n x apparatus_dim
    in_frame = in_sys_basis @ app_frame.conj()  # n x (n + 1)
    frame_probs = np.abs(in_frame) ** 2
    row_totals = np.sum(np.abs(in_sys_basis) ** 2, axis=1)
    residual = np.clip(row_totals - frame_probs.sum(axis=1), 0.0, None)

    entries = []
    for i in range(n):
        for j in range(n + 1):
            entries.append(JointOutcome(i, j, float(frame_probs[i, j])))
        entries.append(JointOutcome(i, n + 1, float(residual[i])))
    return JointOutcomeDistribution(n, tuple(entries))


def sample_trials(
    model: MeasurementModel, psi0: StateVector, t: float, n_trials: int, seed: int
) -> tuple[np.ndarray, EstimateReport]:
    """Draw repeated joint measurements at time t and estimate the happened probability.

    psi0 is evolved once under the model's H, branch by branch, and the
    joint distribution computed once; the report's exact probability is the
    projector expectation, which the matched mass must equal. Trials
    are independent categorical draws from it. The records are an array with
    one row per trial and fields q_outcome, pointer_outcome and case1
    (pointer_outcome == q_outcome + 1). Identical inputs and seed produce
    identical records.
    """
    if n_trials < 1:
        raise InvalidParameter(f"n_trials must be >= 1, got {n_trials}")
    psi_t = evolve_branches(model, psi0, t)
    dist = joint_distribution(model, psi_t)
    exact = happened_probability(model, psi_t)

    cumulative = np.cumsum([e.probability for e in dist.entries])
    uniforms = np.random.default_rng(seed).random(n_trials)
    picks = np.minimum(
        np.searchsorted(cumulative, uniforms, side="right"), len(dist.entries) - 1
    )

    q_index, pointer_index = np.array([(e.q_index, e.pointer_index) for e in dist.entries]).T
    fields = [("q_outcome", np.int64), ("pointer_outcome", np.int64), ("case1", bool)]
    records = np.empty(n_trials, dtype=fields)
    records["q_outcome"] = q_index[picks]
    records["pointer_outcome"] = pointer_index[picks]
    records["case1"] = (pointer_index == q_index + 1)[picks]
    case1_count = int(np.count_nonzero(records["case1"]))

    estimate = case1_count / n_trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / n_trials)
    report = EstimateReport(t, n_trials, case1_count, estimate, std_error, exact)
    return records, report
