"""Reference exact sums: one Python pass over users and their edges."""

from __future__ import annotations

import numpy as np

from repro.community.clustering import Clustering
from repro.exceptions import ClusteringError
from repro.graph.preference_graph import PreferenceGraph


def exact_averages(
    preferences: PreferenceGraph,
    clustering: Clustering,
    max_weight: float = 1.0,
    protection: str = "edge",
    user_clamp: int = 50,
) -> np.ndarray:
    """Per-(item, cluster) average clipped weights, item rows in
    ``preferences.items()`` order — what
    :func:`repro.core.cluster_weights.cluster_item_averages` returns as
    ``.matrix``.

    Raises:
        ClusteringError: if a user with preference edges is not clustered.
    """
    items = preferences.items()
    item_index = {item: i for i, item in enumerate(items)}
    sums = np.zeros((len(items), clustering.num_clusters))
    for user in preferences.users():
        owned = preferences.items_of(user)
        if not owned:
            continue
        if user not in clustering:
            raise ClusteringError(f"user {user!r} is not in any cluster")
        column = clustering.cluster_of(user)
        kept = list(owned)
        if protection == "user":
            kept = sorted(kept, key=item_index.__getitem__)[:user_clamp]
        for item in kept:
            sums[item_index[item], column] += min(owned[item], max_weight)
    if clustering.num_clusters:
        return sums / np.asarray(clustering.sizes(), dtype=float)[np.newaxis, :]
    return sums
