"""Module A_w of Algorithm 1: noisy per-cluster average edge weights.

For every item ``i`` and cluster ``c`` the mechanism releases

    w_hat_c^i = (1/|c|) * sum_{u in c} w(u, i)  +  Lap(1 / (|c| * eps))

(lines 2–7 of Algorithm 1).  Adding or removing one preference edge changes
exactly one of these averages — the one for the edge's user's cluster and
the edge's item — by at most ``1/|c|``, so each release is eps-DP by the
Laplace mechanism and the whole collection is eps-DP by parallel
composition over clusters (disjoint users) and items (disjoint edges).

The mechanism factors into two halves, exposed separately because only
the second depends on epsilon or randomness:

- :func:`cluster_item_averages` — the *exact* sums/averages, a pure
  function of the preference graph and the clustering.  Sweep drivers
  compute it once per dataset and reuse it across every epsilon and
  noise repeat (see :mod:`repro.experiments.engine`).
- :func:`apply_laplace_noise` — one calibrated noise draw on top of the
  exact averages.  A noise repeat costs exactly one Laplace tensor.  It
  is the only function that draws a module-A_w release, and it charges
  each one to the privacy ledger (:mod:`repro.obs.ledger`), so the
  recommender and the sweep engine are accounted alike.

:func:`noisy_cluster_item_weights` composes the two and remains the
single entry point the recommender uses.

The averages are materialised as a dense ``(num_items, num_clusters)``
matrix: noise must be drawn for *every* cell, including the all-zero ones —
skipping empty cells would reveal which (item, cluster) pairs have no
edges, leaking exactly the information the mechanism protects.

Beyond the paper's edge-level guarantee, ``protection="user"`` offers
*user-level* differential privacy: neighbouring preference graphs differ
in one user's **entire** edge set.  One user's edges live in one cluster
column but touch up to ``user_clamp`` rows (edges beyond the clamp, in the
fixed item order, are dropped), each moving its average by ``W/|c|`` —
an L1 sensitivity of ``user_clamp * W / |c|``, which is exactly how the
noise is scaled.  This is the standard group-privacy strengthening; it
costs a factor ``user_clamp`` in noise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.community.clustering import Clustering
from repro.exceptions import ClusteringError
from repro.graph.preference_graph import PreferenceGraph
from repro.obs.ledger import record_laplace_release
from repro.privacy.mechanisms import validate_epsilon
from repro.types import ItemId

__all__ = [
    "ClusterItemAverages",
    "NoisyClusterWeights",
    "cluster_item_averages",
    "apply_laplace_noise",
    "noisy_cluster_item_weights",
]


@dataclass(frozen=True)
class NoisyClusterWeights:
    """The sanitised output of module A_w.

    Attributes:
        matrix: ``(num_items, num_clusters)`` noisy average weights.
        items: item order matching the matrix rows.
        item_index: item -> row.
        clustering: the clustering used (column c = cluster c).
        epsilon: the privacy parameter the release satisfied.
    """

    matrix: np.ndarray
    items: List[ItemId]
    item_index: Dict[ItemId, int]
    clustering: Clustering
    epsilon: float

    def weight(self, item: ItemId, cluster_index: int) -> float:
        """``w_hat_c^i`` for one (item, cluster) pair.

        Raises:
            KeyError: for an unknown item.
            IndexError: for an out-of-range cluster index.
        """
        row = self.item_index[item]
        if not 0 <= cluster_index < self.clustering.num_clusters:
            raise IndexError(
                f"cluster index {cluster_index} out of range "
                f"[0, {self.clustering.num_clusters})"
            )
        return float(self.matrix[row, cluster_index])


@dataclass(frozen=True)
class ClusterItemAverages:
    """The exact (pre-noise) half of module A_w.

    This is *not* a differentially private release — it is the
    epsilon-independent intermediate that sweep drivers hoist out of
    their noise-repeat loops.  Publish it only after
    :func:`apply_laplace_noise`.

    Attributes:
        matrix: ``(num_items, num_clusters)`` exact average weights.
        items: item order matching the matrix rows.
        item_index: item -> row.
        clustering: the clustering used (column c = cluster c).
        max_weight: the weight cap ``W`` the sums were clipped to.
        protection: ``"edge"`` or ``"user"`` (fixes the sensitivity).
        user_clamp: per-user edge bound under user-level protection.
    """

    matrix: np.ndarray
    items: List[ItemId]
    item_index: Dict[ItemId, int]
    clustering: Clustering
    max_weight: float
    protection: str
    user_clamp: int

    @property
    def sensitivity(self) -> float:
        """The L1 sensitivity numerator ``Delta`` of one cluster sum.

        ``W`` under edge-level protection, ``W * user_clamp`` under
        user-level protection; cluster ``c``'s average moves by at most
        ``Delta / |c|``.
        """
        if self.protection == "edge":
            return self.max_weight
        return self.max_weight * self.user_clamp

    def laplace_scales(self, epsilon: float) -> Optional[np.ndarray]:
        """Per-cluster Laplace scale ``Delta / (|c| * eps)`` for ``epsilon``.

        Returns None when no noise is drawn (``epsilon = inf`` or an empty
        matrix).  ``Delta`` is ``W`` under edge-level protection and
        ``W * user_clamp`` under user-level protection.
        """
        epsilon = validate_epsilon(epsilon)
        if math.isinf(epsilon) or not self.matrix.size:
            return None
        sizes = np.asarray(self.clustering.sizes(), dtype=float)
        return self.sensitivity / (sizes * epsilon)


def _validate_parameters(
    max_weight: float, protection: str, user_clamp: int
) -> None:
    from repro.exceptions import PrivacyError

    # Written so that NaN, which fails every comparison, is rejected too.
    if not 0.0 < max_weight < math.inf:
        raise PrivacyError(f"max_weight must be finite and positive, got {max_weight}")
    if protection not in ("edge", "user"):
        raise PrivacyError(
            f"protection must be 'edge' or 'user', got {protection!r}"
        )
    if protection == "user" and (
        isinstance(user_clamp, bool)
        or not isinstance(user_clamp, numbers.Integral)
        or user_clamp < 1
    ):
        raise PrivacyError(f"user_clamp must be an integer >= 1, got {user_clamp!r}")


def _clamped_user_items(
    preferences: PreferenceGraph,
    clustering: Clustering,
    item_index: Dict[ItemId, int],
    max_weight: float,
    protection: str,
    user_clamp: int,
):
    """Yield ``(cluster_column, item_dict)`` per contributing user.

    Applies the user-level clamp (keep each user's first ``user_clamp``
    edges in the fixed item order) and validates cluster coverage —
    the one place that decides which edges count.
    """
    for user in preferences.users():
        owned = preferences.items_of(user)
        if not owned:
            continue
        if user not in clustering:
            raise ClusteringError(
                f"user {user!r} has preference edges but is not in any cluster"
            )
        column = clustering.cluster_of(user)
        if protection == "user" and len(owned) > user_clamp:
            kept = sorted(owned, key=item_index.__getitem__)[:user_clamp]
            owned = {item: owned[item] for item in kept}
        yield column, owned


def _exact_sums(
    preferences: PreferenceGraph,
    clustering: Clustering,
    item_index: Dict[ItemId, int],
    max_weight: float,
    protection: str,
    user_clamp: int,
) -> np.ndarray:
    """CSR accumulation: clipped preference matrix times cluster indicator.

    Builds the (edges,) COO triplets one user at a time, clips the
    weights once, then reduces ``W_pref^T @ C`` in scipy.  For the
    paper's unweighted model (and any weight grid exactly representable
    in binary) the per-cell sums are exact; the tests pin them against a
    per-edge loop.
    """
    num_items = len(item_index)
    num_clusters = clustering.num_clusters
    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    for column, owned in _clamped_user_items(
        preferences, clustering, item_index, max_weight, protection, user_clamp
    ):
        rows.extend(map(item_index.__getitem__, owned))
        cols.extend([column] * len(owned))
        data.extend(owned.values())
    sums = sp.csr_matrix(
        (
            np.minimum(np.asarray(data, dtype=float), max_weight),
            (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)),
        ),
        shape=(num_items, num_clusters),
    )
    return sums.toarray()


def cluster_item_averages(
    preferences: PreferenceGraph,
    clustering: Clustering,
    max_weight: float = 1.0,
    protection: str = "edge",
    user_clamp: int = 50,
) -> ClusterItemAverages:
    """Exact per-cluster average weights (lines 2–5 of Algorithm 1).

    A pure function of the preference graph and the clustering: no
    epsilon, no randomness.  Sweep drivers call it once per dataset and
    re-noise the result per repeat with :func:`apply_laplace_noise`.

    Args:
        preferences: the private preference graph.
        clustering: a partition of the users; every preference-graph user
            with at least one edge must be covered.
        max_weight: the weight cap ``W`` (edges are clipped to it).
        protection: ``"edge"`` or ``"user"`` (see module docstring).
        user_clamp: per-user edge bound under ``protection="user"``.

    Raises:
        ClusteringError: if a user with preference edges is not clustered.
        PrivacyError: for a ``max_weight`` that is not finite and
            positive, a ``user_clamp`` that is not an integer ``>= 1``, or
            an unknown protection level.
    """
    _validate_parameters(max_weight, protection, user_clamp)

    items = preferences.items()
    item_index = {item: i for i, item in enumerate(items)}
    num_clusters = clustering.num_clusters

    sums = _exact_sums(
        preferences, clustering, item_index, max_weight, protection, user_clamp
    )

    sizes = np.asarray(clustering.sizes(), dtype=float)
    if num_clusters:
        averages = sums / sizes[np.newaxis, :]
    else:
        averages = sums

    return ClusterItemAverages(
        matrix=averages,
        items=items,
        item_index=item_index,
        clustering=clustering,
        max_weight=max_weight,
        protection=protection,
        user_clamp=user_clamp,
    )


def apply_laplace_noise(
    averages: ClusterItemAverages,
    epsilon: float,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """One calibrated noise draw on the exact averages (lines 6–7).

    Draws exactly one ``(num_items, num_clusters)`` Laplace tensor from
    ``rng`` (or none at all for ``epsilon = inf`` / an empty matrix), so
    a caller that re-seeds ``rng`` per repeat reproduces the recommender's
    noise streams bit-for-bit.  Each draw is charged to the active
    telemetry registry's ledger as one release of one parallel charge per
    cluster, costing exactly ``epsilon``; nothing is charged when nothing
    is drawn, or when telemetry is disabled.

    Returns a fresh matrix; the averages object is never mutated.

    Raises:
        InvalidEpsilonError: for an invalid epsilon.
    """
    epsilon = validate_epsilon(epsilon)
    if rng is None:
        rng = np.random.default_rng(0)
    scales = averages.laplace_scales(epsilon)
    if scales is None:
        return averages.matrix.copy()
    noise = rng.laplace(
        loc=0.0, scale=scales[np.newaxis, :], size=averages.matrix.shape
    )
    record_laplace_release(
        epsilon,
        averages.clustering.sizes(),
        averages.sensitivity,
        items=len(averages.items),
    )
    return averages.matrix + noise


def noisy_cluster_item_weights(
    preferences: PreferenceGraph,
    clustering: Clustering,
    epsilon: float,
    rng: Optional[np.random.Generator] = None,
    max_weight: float = 1.0,
    protection: str = "edge",
    user_clamp: int = 50,
) -> NoisyClusterWeights:
    """Run module A_w end to end: release all noisy cluster-average weights.

    Composes :func:`cluster_item_averages` and :func:`apply_laplace_noise`;
    see those for the split.  The noise stream is identical to every
    previous version of this function: one Laplace draw of the full
    ``(num_items, num_clusters)`` shape, or none for ``epsilon = inf``.

    Args:
        preferences: the private preference graph.
        clustering: a partition of the users; every preference-graph user
            with at least one edge must be covered (otherwise that user's
            edges would escape the sensitivity analysis).
        epsilon: privacy parameter; ``math.inf`` releases exact averages.
        rng: random source for the Laplace noise.
        max_weight: the weight cap ``W``.  The paper's model is unweighted
            (``W = 1``); for weighted (ratings-style) graphs — the
            extension the paper's Section 7 proposes — edges are clipped
            to ``W`` and one edge then moves a cluster average by at most
            ``W/|c|``, so the noise scale becomes ``W/(|c| eps)``.
        protection: ``"edge"`` (the paper's model: neighbouring graphs
            differ in one edge) or ``"user"`` (group privacy: neighbouring
            graphs differ in one user's entire edge set; noise scales by
            ``user_clamp``).
        user_clamp: under ``protection="user"``, only each user's first
            ``user_clamp`` edges (in the graph's fixed item order)
            contribute; this bounds the per-user sensitivity.

    Raises:
        ClusteringError: if a user with preference edges is not clustered.
        InvalidEpsilonError: for an invalid epsilon.
        PrivacyError: for a ``max_weight`` that is not finite and
            positive, a ``user_clamp`` that is not an integer ``>= 1``, or
            an unknown protection level.
    """
    epsilon = validate_epsilon(epsilon)
    averages = cluster_item_averages(
        preferences,
        clustering,
        max_weight=max_weight,
        protection=protection,
        user_clamp=user_clamp,
    )
    matrix = apply_laplace_noise(averages, epsilon, rng=rng)
    return NoisyClusterWeights(
        matrix=matrix,
        items=averages.items,
        item_index=averages.item_index,
        clustering=clustering,
        epsilon=epsilon,
    )
