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
are post-processing and spend **zero additional epsilon**.  This module
names the rungs; :func:`repro.core.scoring.ladder_estimates` computes
them.
"""

from __future__ import annotations

__all__ = [
    "TIER_PERSONALIZED",
    "TIER_CLUSTER",
    "TIER_GLOBAL",
    "TIER_EMPTY",
    "DEGRADATION_LADDER",
]

TIER_PERSONALIZED = "personalized"
TIER_CLUSTER = "cluster-popularity"
TIER_GLOBAL = "global-popularity"
TIER_EMPTY = "empty"

# Best tier first; results report which rung they were served from.
DEGRADATION_LADDER = (TIER_PERSONALIZED, TIER_CLUSTER, TIER_GLOBAL, TIER_EMPTY)
