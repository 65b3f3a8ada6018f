"""Operational verification of the measurement-timing probability.

At a chosen time an external observer measures the system variable and the
pointer position jointly (they commute). A trial is Case 1 when the
pointer sits in the position matched to the observed outcome, Case 2
otherwise. The Case-1 frequency over many trials estimates the happened
probability. On system branch i the happened projector is |o_i><o_i| on
the apparatus, so the matched-pair mass of the joint distribution is
exactly the projector's expectation. This identity is what makes the
operator and operational definitions agree, and the matched mass is the
exact probability ``sample_trials`` reports. Both functions read the state
as its (n, d) branch rows, and the joint distribution is a plain read-only
(n, n + 2) array. Sampled trials are tallied per joint cell, not kept one
by one, from blocks of ``hilbert.BLOCK_BYTES`` of uniform draws, so memory
does not grow with the trial count.

Pointer outcome encoding: 0 is the ready state, j in 1..n is the pointer
state for outcome j, and n+1 is the residual bucket collecting apparatus
components outside the pointer frame. The match for q outcome i (0-based)
is pointer index i+1; every non-matched outcome counts as Case 2.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .dynamics import _propagator
from .errors import InvalidParameter, NumericalError
from .hilbert import BLOCK_BYTES, ValueRecord, _freeze
from .measurement import MeasurementModel
from .tolerances import TOL

# Sampling draws one uniform per trial and inverts the cumulative
# distribution; the generator is numpy's seeded PCG64.
RNG_ALGORITHM = "numpy-pcg64/inverse-cdf"



class EstimateReport(ValueRecord):
    """Binomial estimate of the happened probability from repeated trials at time t."""

    __slots__ = ("t", "n_trials", "case1_count", "estimate", "std_error", "exact_prob")


def joint_distribution(model: MeasurementModel, branches: np.ndarray) -> np.ndarray:
    """Born-rule probabilities of every (q outcome, pointer position) pair of branch rows.

    Row i of ``branches`` is chi_i = (<a_i| (x) I) psi. Entry [i, j] of the
    read-only (n, n + 2) result is the probability of q outcome i with
    pointer outcome j, in the module's pointer encoding, so the entries sum
    to one (else NumericalError). The matched-pair mass, the trace at offset
    1, equals happened_probability(model, psi) identically; this is the
    operational/operator equivalence. Rows that are not the model's (n, d)
    raise DimensionMismatch.
    """
    model.check_rows(branches)
    frame_probs = np.abs(branches @ model.pointer_frame.conj()) ** 2  # n x (n + 1)
    row_totals = np.sum(np.abs(branches) ** 2, axis=1)
    residual = np.clip(row_totals - frame_probs.sum(axis=1), 0.0, None)
    probs = np.column_stack([frame_probs, residual])
    total = float(np.sum(probs))
    if not abs(total - 1.0) <= TOL.distribution_sum:
        raise NumericalError(f"joint probabilities sum to {total!r}, not 1")
    return _freeze(probs)


def _tally(cumulative: np.ndarray, n_trials: int, seed: int) -> np.ndarray:
    """Count n_trials seeded inverse-CDF draws per cell of a cumulative distribution."""
    # Draw u falls in cell min(#{k : cumulative[k] <= u}, size - 1), so
    # below[c], the number of draws under cumulative[c], counts cells 0..c,
    # and the last cell also takes every draw at or above cumulative[-1].
    # Sorting a block of draws finds each below[c] by one binary search.
    # Successive ``random(k)`` calls continue one PCG64 stream, so the counts
    # do not depend on the block size.
    draws = BLOCK_BYTES // 8  # float64 uniforms
    rng = np.random.default_rng(seed)
    below = np.zeros(cumulative.size, dtype=np.int64)
    for start in range(0, n_trials, draws):
        block = rng.random(min(draws, n_trials - start))
        block.sort()
        below += np.searchsorted(block, cumulative, side="left")
    below[-1] = n_trials
    return np.diff(below, prepend=0)


def sample_trials(
    model: MeasurementModel, branches: np.ndarray, t: float, n_trials: int, seed: int
) -> tuple[np.ndarray, EstimateReport]:
    """Draw repeated joint measurements at time t and estimate the happened probability.

    ``branches`` holds the (n, d) branch rows of the state at time 0, as
    ``scenario_io.initial_state`` returns them. Each row is evolved once
    under its H_i, which moves only its entries on the block of H_i, and the
    joint distribution computed once; the report's exact probability is its
    matched mass, the branch form of the happened-projector expectation.
    Trials are independent categorical draws from the distribution. The
    counts are the int64 (n, n + 2) tally of the trials: counts[i, j] is
    the number of trials with q outcome i and pointer position j, and the
    trial is Case 1 when j == i + 1. Identical inputs and seed produce
    identical counts.
    """
    for name, value in (("n_trials", n_trials), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    if n_trials < 1 or seed < 0:
        raise InvalidParameter(f"need n_trials >= 1 and seed >= 0, got {n_trials} and {seed}")
    _, propagate = _propagator(model.branch_spectra, model.on_blocks(branches))
    phis = np.array(branches, dtype=np.complex128)
    np.put_along_axis(phis, model.block_index, propagate(np.array([t]))[:, :, 0], axis=1)
    dist = joint_distribution(model, phis)

    n = model.n_outcomes
    counts = _tally(np.cumsum(dist), n_trials, seed).reshape(n, n + 2)
    case1_count = int(np.trace(counts, offset=1))

    estimate = case1_count / n_trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / n_trials)
    report = EstimateReport(
        t, n_trials, case1_count, estimate, std_error, float(np.trace(dist, offset=1))
    )
    return counts, report
