"""Empirical epsilon lower bounds from attack trial outcomes.

An eps-DP mechanism bounds every rejection region ``S`` of any
distinguishing test between two neighbouring inputs:

    P1(S) <= e^eps * P0(S)    and    P0(S) <= e^eps * P1(S)

so any attack that *observes* a region with a large likelihood ratio
certifies a **lower bound** on the mechanism's true epsilon.  Given
samples of the attack statistic under both worlds (the victim's edge
absent / present), :func:`empirical_epsilon_lower_bound` sweeps
threshold tests over the pooled sample points and converts the observed
true/false-positive counts into a high-confidence bound via
Clopper–Pearson binomial intervals:

    eps_hat = max_tau  log( lower_CP(TPR) / upper_CP(FPR) )

with the confidence level Bonferroni-corrected over every threshold
considered, so the *whole sweep* overstates the true epsilon with
probability at most ``failure_probability``.  (The thresholds are taken
at the realized sample points; the Bonferroni union over all of them is
the standard conservative discount for that data dependence.)

Two properties the audit suite relies on, both pinned by tests:

- **Soundness** — on a pure Laplace mechanism with known epsilon the
  bound essentially never exceeds it (the hypothesis calibration test).
- **Monotonicity under common random numbers** — with the default
  ``orientation="greater"`` only threshold families whose bound is
  non-decreasing in the true separation are swept, so an audit that
  reuses one canonical unit-noise draw across an epsilon sweep (see
  :mod:`repro.attacks.membership`) produces bounds that are monotone
  non-decreasing in the configured epsilon by construction, not luck.

A mechanism whose observation channel is *deterministic* (both sample
arrays constant) admits no likelihood-ratio bound at all: if the two
worlds disagree the channel separates them perfectly and the bound is
clipped at :data:`EPS_SENTINEL` — the audit's way of reporting
"effectively unbounded" for the baselines whose noise an attacker who
knows the deployed seed can derive (NOU, NOE, LRM and GS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "EPS_SENTINEL",
    "EmpiricalEpsilon",
    "clopper_pearson_bounds",
    "empirical_epsilon_lower_bound",
]

#: Reported epsilon for a perfectly-distinguishing (deterministic)
#: channel — "unbounded" clipped to a finite, JSON-safe value.
EPS_SENTINEL = 1e6

#: Default probability that the sweep's bound exceeds the true epsilon.
DEFAULT_FAILURE_PROBABILITY = 1e-6


@dataclass(frozen=True)
class EmpiricalEpsilon:
    """One empirical lower bound on a mechanism's epsilon.

    Attributes:
        epsilon: the certified lower bound (0.0 when no test separates
            the worlds; :data:`EPS_SENTINEL` for a deterministic channel
            that distinguishes them exactly).
        deterministic: the channel produced constant statistics in both
            worlds — no likelihood ratio exists, the bound is exact.
        clipped: the bound was cut off at ``sentinel``.
        threshold: the winning test's threshold (None when degenerate).
        direction: ``"greater"`` (reject when statistic >= threshold) or
            ``"less"``; None when degenerate.
        tpr / fpr: raw attack rates of the winning test, before the
            Clopper–Pearson discount.
        trials_without / trials_with: sample sizes per world.
        failure_probability: the bound's overall error budget.
    """

    epsilon: float
    deterministic: bool
    clipped: bool
    threshold: Optional[float]
    direction: Optional[str]
    tpr: float
    fpr: float
    trials_without: int
    trials_with: int
    failure_probability: float


def clopper_pearson_bounds(
    successes: np.ndarray, trials: int, alpha: float
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-entry exact binomial bounds ``(lower, upper)`` at level ``alpha``.

    ``lower[i]`` is the one-sided lower confidence bound for the success
    probability given ``successes[i]`` of ``trials`` (0.0 when no
    successes); ``upper[i]`` the one-sided upper bound (1.0 when every
    trial succeeded).  Each bound individually fails with probability at
    most ``alpha``.
    """
    from scipy.stats import beta

    k = np.asarray(successes, dtype=float)
    lower = np.zeros_like(k)
    upper = np.ones_like(k)
    some = k > 0
    lower[some] = beta.ppf(alpha, k[some], trials - k[some] + 1)
    not_all = k < trials
    upper[not_all] = beta.ppf(1.0 - alpha, k[not_all] + 1, trials - k[not_all])
    return lower, upper


def _count_ge(sorted_samples: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """How many samples are >= each threshold."""
    return sorted_samples.size - np.searchsorted(
        sorted_samples, thresholds, side="left"
    )


def _count_le(sorted_samples: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """How many samples are <= each threshold."""
    return np.searchsorted(sorted_samples, thresholds, side="right")


def empirical_epsilon_lower_bound(
    without: np.ndarray,
    with_: np.ndarray,
    failure_probability: float = DEFAULT_FAILURE_PROBABILITY,
    orientation: str = "greater",
    sentinel: float = EPS_SENTINEL,
) -> EmpiricalEpsilon:
    """The best certified epsilon lower bound over all threshold tests.

    Args:
        without: attack statistics sampled with the victim's edge absent
            (world 0).
        with_: statistics sampled with the edge present (world 1).
        failure_probability: probability budget for the whole sweep to
            overstate the true epsilon (Bonferroni-split across tests).
        orientation: ``"greater"`` (default) assumes the edge's presence
            shifts the statistic upward and sweeps only the two
            monotone-in-separation test families — required for the
            audit's epsilon-monotonicity guarantee under common random
            numbers.  ``"two-sided"`` also sweeps the mirrored families
            (for channels of unknown sign) at the cost of that
            guarantee.
        sentinel: cap for the reported epsilon (deterministic channels).

    Raises:
        ValueError: for empty or NaN inputs, an unknown orientation, or
            a failure probability outside (0, 1).
    """
    if orientation not in ("greater", "two-sided"):
        raise ValueError(
            f"orientation must be 'greater' or 'two-sided', got {orientation!r}"
        )
    if not 0.0 < failure_probability < 1.0:
        raise ValueError(
            f"failure_probability must be in (0, 1), got {failure_probability}"
        )
    x0 = np.asarray(without, dtype=float).ravel()
    x1 = np.asarray(with_, dtype=float).ravel()
    if x0.size == 0 or x1.size == 0:
        raise ValueError("both worlds need at least one sample")
    if np.isnan(x0).any() or np.isnan(x1).any():
        raise ValueError("attack statistics must not contain NaN")

    degenerate = EmpiricalEpsilon(
        epsilon=0.0,
        deterministic=True,
        clipped=False,
        threshold=None,
        direction=None,
        tpr=0.0,
        fpr=0.0,
        trials_without=x0.size,
        trials_with=x1.size,
        failure_probability=failure_probability,
    )
    if np.ptp(x0) == 0.0 and np.ptp(x1) == 0.0:
        # A deterministic channel: the mechanism maps each world to one
        # value.  Equal values -> indistinguishable; different values ->
        # a perfect test, which no finite epsilon permits.
        if x0[0] == x1[0]:
            return degenerate
        greater = x1[0] > x0[0]
        return EmpiricalEpsilon(
            epsilon=sentinel,
            deterministic=True,
            clipped=True,
            threshold=float(x1[0]),
            direction="greater" if greater else "less",
            tpr=1.0,
            fpr=0.0,
            trials_without=x0.size,
            trials_with=x1.size,
            failure_probability=failure_probability,
        )

    thresholds = np.concatenate([x0, x1])
    n0, n1 = x0.size, x1.size
    s0 = np.sort(x0)
    s1 = np.sort(x1)
    directions = 2 if orientation == "greater" else 4
    alpha = failure_probability / (directions * thresholds.size)

    candidates = []
    # Reject "edge present" when the statistic clears the threshold:
    # bound log( CP_lo(P1[x >= tau]) / CP_up(P0[x >= tau]) ).
    candidates.append(("greater", _count_ge(s1, thresholds), n1,
                       _count_ge(s0, thresholds), n0))
    # The complementary family: low statistics are evidence of absence,
    # i.e. bound log( CP_lo(P0[x <= tau]) / CP_up(P1[x <= tau]) ).
    candidates.append(("less", _count_le(s0, thresholds), n0,
                       _count_le(s1, thresholds), n1))
    if orientation == "two-sided":
        candidates.append(("greater", _count_ge(s0, thresholds), n0,
                           _count_ge(s1, thresholds), n1))
        candidates.append(("less", _count_le(s1, thresholds), n1,
                           _count_le(s0, thresholds), n0))

    best = (0.0, None, None, 0.0, 0.0)  # (eps, threshold, direction, tpr, fpr)
    for direction, num_k, num_n, den_k, den_n in candidates:
        num_lo, _ = clopper_pearson_bounds(num_k, num_n, alpha)
        _, den_up = clopper_pearson_bounds(den_k, den_n, alpha)
        with np.errstate(divide="ignore"):
            bounds = np.log(num_lo) - np.log(den_up)
        index = int(np.argmax(bounds))
        if bounds[index] > best[0]:
            # tpr/fpr report the winning test's *raw* rates in the
            # world-1-positive convention regardless of which ratio the
            # bound came from.
            if direction == "greater":
                tpr = _count_ge(s1, thresholds[index : index + 1])[0] / n1
                fpr = _count_ge(s0, thresholds[index : index + 1])[0] / n0
            else:
                tpr = _count_le(s1, thresholds[index : index + 1])[0] / n1
                fpr = _count_le(s0, thresholds[index : index + 1])[0] / n0
            best = (
                float(bounds[index]),
                float(thresholds[index]),
                direction,
                float(tpr),
                float(fpr),
            )

    epsilon, threshold, direction, tpr, fpr = best
    clipped = epsilon > sentinel or math.isinf(epsilon)
    if clipped:
        epsilon = sentinel
    if direction is None:
        # Random channel, but no test separated the worlds at this
        # confidence: the certified bound is 0.
        return EmpiricalEpsilon(
            epsilon=0.0,
            deterministic=False,
            clipped=False,
            threshold=None,
            direction=None,
            tpr=0.0,
            fpr=0.0,
            trials_without=n0,
            trials_with=n1,
            failure_probability=failure_probability,
        )
    return EmpiricalEpsilon(
        epsilon=epsilon,
        deterministic=False,
        clipped=clipped,
        threshold=threshold,
        direction=direction,
        tpr=tpr,
        fpr=fpr,
        trials_without=n0,
        trials_with=n1,
        failure_probability=failure_probability,
    )
