"""Membership inference against released noisy cluster averages.

The attack asks the canonical DP question at the paper's granularity:
*was the preference edge (victim, item) in the dataset the release was
computed from?*  The attacker knows everything except that edge — the
public social graph, the clustering, every other preference edge — so
the two candidate worlds differ in exactly one edge, the neighbouring
datasets of Theorem 4's guarantee.

Under module ``A_w`` the edge influences a single release cell: the
(item, victim's-cluster) average moves by ``Delta/|c|``, noised at scale
``Delta/(|c| eps)``.  The optimal attack therefore reads that one cell
and thresholds it; this module samples the attack statistic under both
worlds and :func:`repro.attacks.estimator.empirical_epsilon_lower_bound`
turns the outcome counts into a certified epsilon lower bound.

Sampling rules:

- **Mechanisms with an explicit randomness input** (module ``A_w`` via
  :func:`~repro.core.cluster_weights.apply_laplace_noise`) are audited
  honestly: the trial noise is drawn through that input, from one
  canonical unit-Laplace stream per measure that is *shared across the
  epsilon sweep* (common random numbers).  Each trial's statistic is
  the exact cell average plus ``scale(eps) * unit_draw`` — exactly the
  single-cell marginal of a full release, at sweep speed, and monotone
  in epsilon by the estimator's construction.
- **Mechanisms without one** (NOU / NOE / LRM / GS derive their noise
  internally from their configured seed) are audited *as deployed*: one
  fixed configuration, a deterministic observation channel.  Both
  worlds map to single values; if they differ, the channel separates
  the worlds exactly and the estimator reports the sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.attacks.estimator import (
    EmpiricalEpsilon,
    empirical_epsilon_lower_bound,
)
from repro.core.cluster_weights import ClusterItemAverages
from repro.obs.registry import incr as obs_incr
from repro.types import ItemId, UserId

__all__ = [
    "MembershipResult",
    "deterministic_membership_result",
    "run_membership_attack",
    "unit_laplace_draws",
]


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of the membership-inference attack on one audit cell.

    Attributes:
        victim / item: the preference edge whose membership is attacked.
        trials: samples drawn per world (1 for deterministic channels).
        statistic_without / statistic_with: the exact (pre-noise) attack
            statistic in each world.
        estimate: the certified empirical-epsilon lower bound.
    """

    victim: UserId
    item: ItemId
    trials: int
    statistic_without: float
    statistic_with: float
    estimate: EmpiricalEpsilon

    @property
    def eps_empirical(self) -> float:
        return self.estimate.epsilon

    @property
    def deterministic(self) -> bool:
        return self.estimate.deterministic


def unit_laplace_draws(
    seed_seq: np.random.SeedSequence, trials: int
) -> np.ndarray:
    """``trials`` unit-scale Laplace draws from a dedicated stream.

    One canonical draw per (measure, world) is reused across the whole
    epsilon sweep — the common-random-numbers discipline behind the
    audit's monotonicity guarantee.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return np.random.default_rng(seed_seq).laplace(0.0, 1.0, size=trials)


def run_membership_attack(
    averages_without: ClusterItemAverages,
    averages_with: ClusterItemAverages,
    victim: UserId,
    item: ItemId,
    epsilon: float,
    draws_without: np.ndarray,
    draws_with: np.ndarray,
) -> MembershipResult:
    """Attack module ``A_w``'s release cell for one configured epsilon.

    Args:
        averages_without / averages_with: exact cluster-item averages of
            the two neighbouring preference graphs (same clustering).
        victim / item: the attacked edge; the read cell is
            ``(item, cluster_of(victim))``.
        epsilon: the release's configured privacy parameter.
        draws_without / draws_with: canonical unit-Laplace draws (one
            per trial per world), scaled to this epsilon's noise level.

    Returns:
        A :class:`MembershipResult`; for ``epsilon = inf`` the release
        is exact, the channel deterministic, and the estimate reports
        the sentinel whenever the edge actually moves the cell.
    """
    row = averages_with.item_index[item]
    column = averages_with.clustering.cluster_of(victim)
    exact_without = float(averages_without.matrix[row, column])
    exact_with = float(averages_with.matrix[row, column])

    scales = averages_with.laplace_scales(epsilon)
    if scales is None:
        samples: Tuple[np.ndarray, np.ndarray] = (
            np.array([exact_without]),
            np.array([exact_with]),
        )
    else:
        scale = float(scales[column])
        samples = (
            exact_without + scale * draws_without,
            exact_with + scale * draws_with,
        )
    obs_incr("attacks.trials", samples[0].size + samples[1].size)

    estimate = empirical_epsilon_lower_bound(samples[0], samples[1])
    return MembershipResult(
        victim=victim,
        item=item,
        trials=max(samples[0].size, samples[1].size),
        statistic_without=exact_without,
        statistic_with=exact_with,
        estimate=estimate,
    )


def deterministic_membership_result(
    victim: UserId,
    item: ItemId,
    utility_without: float,
    utility_with: float,
) -> MembershipResult:
    """Membership outcome for a mechanism audited as deployed.

    NOU / NOE / LRM / GS take no randomness input: their noise is a
    fixed function of the configured seed, so the attacker — who knows
    the deployed configuration — faces a deterministic channel.  The
    statistic is the observer's utility for the attacked item under
    each world; any difference separates the worlds exactly.
    """
    obs_incr("attacks.trials", 2)
    estimate = empirical_epsilon_lower_bound(
        np.array([utility_without]), np.array([utility_with])
    )
    return MembershipResult(
        victim=victim,
        item=item,
        trials=1,
        statistic_without=float(utility_without),
        statistic_with=float(utility_with),
        estimate=estimate,
    )
