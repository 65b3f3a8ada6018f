"""Operational verification of the measurement-timing probability.

At a chosen time an external observer measures the system variable and the
pointer position jointly (they commute). A trial is Case 1 when the
pointer sits in the position matched to the observed outcome, Case 2
otherwise. The Case-1 frequency over many trials estimates the happened
probability. On system branch i the happened projector is |o_i><o_i| on
the apparatus, so the matched-pair mass of the joint distribution is
exactly the projector's expectation. This identity is what makes the
operator and operational definitions agree, and the matched mass is the
exact probability ``sample_trials`` reports.

Pointer outcome encoding: 0 is the ready state, j in 1..n is the pointer
state for outcome j, and n+1 is the residual bucket collecting apparatus
components outside the pointer frame. The match for q outcome i (0-based)
is pointer index i+1; every non-matched outcome counts as Case 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _propagator
from .errors import InvalidParameter, NumericalError
from .hilbert import StateVector
from .measurement import MeasurementModel
from .tolerances import TOL

# Sampling draws one uniform per trial and inverts the cumulative
# distribution; the generator is numpy's seeded PCG64.
RNG_ALGORITHM = "numpy-pcg64/inverse-cdf"


@dataclass(frozen=True, eq=False)
class JointOutcomeDistribution:
    """Born-rule probabilities over (system outcome, pointer position) pairs.

    probabilities[i, j] is the probability of q outcome i with pointer
    outcome j, in the module's pointer encoding; the shape is (n, n + 2).
    """

    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probabilities, dtype=np.float64)
        if not np.all(probs >= 0):
            raise NumericalError("joint probabilities must be nonnegative")
        total = float(np.sum(probs))
        if not abs(total - 1.0) <= TOL.distribution_sum:
            raise NumericalError(f"joint probabilities sum to {total!r}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)

    def matched_probability(self) -> float:
        """Total mass on Case-1 pairs (pointer index == q index + 1)."""
        return float(np.trace(self.probabilities, offset=1))


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


def joint_distribution(model: MeasurementModel, branches: np.ndarray) -> JointOutcomeDistribution:
    """Probabilities of every (q outcome, pointer position) pair of a state's branch rows.

    Row i of ``branches`` is chi_i = (<a_i| (x) I) psi (``model.branch_components``);
    row i of the result covers its ready state, all n pointer states and the
    residual complement, so the rows together sum to one. The matched-pair
    mass equals happened_probability(model, psi) identically; this is the
    operational/operator equivalence.
    """
    frame_probs = np.abs(branches @ model.pointer_frame.conj()) ** 2  # n x (n + 1)
    row_totals = np.sum(np.abs(branches) ** 2, axis=1)
    residual = np.clip(row_totals - frame_probs.sum(axis=1), 0.0, None)
    return JointOutcomeDistribution(np.column_stack([frame_probs, residual]))


def sample_trials(
    model: MeasurementModel, psi0: StateVector, t: float, n_trials: int, seed: int
) -> tuple[np.ndarray, EstimateReport]:
    """Draw repeated joint measurements at time t and estimate the happened probability.

    psi0 is evolved once under the model's H, branch by branch, and the
    joint distribution computed once; the report's exact probability is its
    matched mass, the branch form of the happened-projector expectation.
    Trials are independent categorical draws from the distribution. The
    records are the int64 array of drawn cells, one per trial: cell
    c = i (n + 2) + j is q outcome i with pointer position j, so
    (i, j) = divmod(c, n + 2), and the trial is Case 1 when j == i + 1.
    Identical inputs and seed produce identical records.
    """
    if n_trials < 1:
        raise InvalidParameter(f"n_trials must be >= 1, got {n_trials}")
    spectra = model.branch_spectra
    _, propagate = _propagator(spectra, model.branch_components(psi0), spectra.eigenvectors)
    branches = propagate(np.array([t]))
    dist = joint_distribution(model, branches[:, :, 0])

    cumulative = np.cumsum(dist.probabilities)
    uniforms = np.random.default_rng(seed).random(n_trials)
    records = np.searchsorted(cumulative, uniforms, side="right")
    np.minimum(records, cumulative.size - 1, out=records)
    case1 = np.eye(model.n_outcomes, model.n_outcomes + 2, k=1, dtype=bool).ravel()
    case1_count = int(np.count_nonzero(case1[records]))

    estimate = case1_count / n_trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / n_trials)
    report = EstimateReport(
        t, n_trials, case1_count, estimate, std_error, dist.matched_probability()
    )
    return records, report
