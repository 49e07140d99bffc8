"""The serving degradation ladder.

Machanavajjhala et al. (*Accurate or Private?*, VLDB 2011) observe that
a private recommender is exactly the setting where falling back to
less-personalized answers must be an engineered, first-class path: the
released signal is noisy and sparse by design, and real query streams
contain users the release has no signal for.  The ladder:

1. **personalized** — the paper's estimator, used whenever the user's
   cluster-similarity vector is non-zero.
2. **cluster-popularity** — the user has no usable similarity signal
   (isolated node, or every neighbour outside the clustering) but *is*
   assigned to a release cluster: rank items by that cluster's own noisy
   average weights.
3. **global** — the user is unknown to the release entirely (e.g. joined
   after publication): rank items by the size-weighted mean of the noisy
   averages across all clusters — a global noisy popularity list.
4. **empty** — the release is degenerate (no items or no clusters);
   serve an empty list rather than raising.

Every tier reads only the already-published matrix, so degraded answers
are post-processing and spend **zero additional epsilon**.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.obs.registry import incr as obs_incr

__all__ = [
    "TIER_PERSONALIZED",
    "TIER_CLUSTER",
    "TIER_GLOBAL",
    "TIER_EMPTY",
    "DEGRADATION_LADDER",
    "degradation_estimates",
]

TIER_PERSONALIZED = "personalized"
TIER_CLUSTER = "cluster-popularity"
TIER_GLOBAL = "global-popularity"
TIER_EMPTY = "empty"

# Best tier first; results report which rung they were served from.
DEGRADATION_LADDER = (TIER_PERSONALIZED, TIER_CLUSTER, TIER_GLOBAL, TIER_EMPTY)


def degradation_estimates(
    weights, user, max_tier: str = TIER_CLUSTER
) -> Tuple[Optional[np.ndarray], str]:
    """Fallback utility estimates for a user without personalized signal.

    Args:
        weights: a :class:`~repro.core.cluster_weights.NoisyClusterWeights`
            release (not imported by name to avoid a core ↔ resilience
            import cycle).
        user: the target user.
        max_tier: the best ladder rung the caller allows.  The serving
            tier's admission control uses this to shed load *down* the
            ladder under overload: capping at :data:`TIER_GLOBAL` skips
            the user's own cluster rung, capping at :data:`TIER_EMPTY`
            returns the empty rung immediately.  Every rung is
            post-processing of the published matrix, so a cap never
            changes the privacy cost — only how personalized the answer
            is.  :data:`TIER_PERSONALIZED` is not produced here and is
            treated as :data:`TIER_CLUSTER` (the best fallback rung).

    Returns:
        ``(estimates, tier)`` where ``estimates`` aligns with
        ``weights.items`` (or is None for :data:`TIER_EMPTY`) and ``tier``
        is the ladder rung that produced it.

    Raises:
        ValueError: for a ``max_tier`` not on the ladder.
    """
    # The one ladder implementation is the scoring core's (imported here,
    # not at module level: repro.core imports this module for the tiers).
    from repro.core.scoring import ladder_estimates

    clustering = weights.clustering
    column = clustering.cluster_of(user) if user in clustering else -1
    sizes = np.asarray(clustering.sizes(), dtype=float)
    estimates, tier = ladder_estimates(weights.matrix, column, sizes, max_tier)
    obs_incr(f"serve.tier.{tier}")
    return estimates, tier
