"""Synthetic datasets matched to the paper's Last.fm and Flixster crawls.

The framework's accuracy depends on four structural properties of the
input, all of which the generator controls explicitly:

1. **Community structure** in the social graph — each community is an
   internal preferential-attachment graph, with random bridges between
   communities (:func:`repro.graph.generators.community_attachment_graph`).
2. **Heavy-tailed social degrees** — from the preferential attachment
   (Table 1 reports degree std well above the mean for both crawls).
3. **Preference sparsity and item-popularity skew** — item popularity
   follows a Zipf-like law; preference counts per user are geometric-ish.
4. **Community-correlated tastes with sub-community heterogeneity** —
   users in the same community draw most of their preferences from a
   community-specific item pool (what makes *any* social recommender
   work), but each user also belongs to a *sub-group* with its own
   narrower pool.  Sub-group tastes are finer-grained than the communities
   Louvain detects, so cluster averages cannot represent them exactly —
   this is what gives the framework a realistic, non-zero approximation
   error and reproduces the paper's Figure 3 degree effect (low-degree
   users suffer more from averaging).

Two presets mirror the paper's datasets at configurable scale:

- :meth:`SyntheticDatasetSpec.lastfm_like` — sparse social graph
  (avg degree ~13), ~9 items per user.
- :meth:`SyntheticDatasetSpec.flixster_like` — denser social graph
  (avg degree ~18.5), ~55 preferences per user; the higher degree is what
  produced Flixster's larger clusters and stronger noise resistance in the
  paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.datasets.dataset import SocialRecDataset
from repro.exceptions import DatasetError
from repro.graph.generators import community_attachment_graph
from repro.graph.preference_graph import PreferenceGraph

__all__ = ["SyntheticDatasetSpec"]


def _check_scale(scale: float) -> None:
    # Written so that NaN, which fails every comparison, is rejected too.
    if not 0.0 < scale < math.inf:
        raise DatasetError(f"scale must be finite and positive, got {scale}")


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    """Parameters of a synthetic social-recommendation dataset.

    Attributes:
        name: dataset label.
        num_users: total number of users.
        num_communities: number of planted communities.
        attachment: preferential-attachment parameter inside communities
            (drives the average social degree, roughly 2x this value).
        inter_community_edges: random bridges between communities.
        num_items: size of the item universe.
        mean_prefs_per_user: average number of preference edges per user.
        community_affinity: probability that a non-sub-group preference is
            drawn from the user's community pool rather than the global
            pool.
        subgroup_affinity: probability that a preference is drawn from the
            user's *sub-group* pool (finer than the community; this is the
            heterogeneity that creates realistic approximation error).
        subgroups_per_community: number of sub-group pools per community.
        pool_fraction: fraction of the item universe in each community pool.
        zipf_exponent: popularity skew of the global item distribution.
        contagion: fraction of each user's preferences copied from their
            *social neighbors'* preferences (homophily/influence).  This
            aligns tastes with actual friend circles — structure finer than
            any community clustering can capture — and is what gives
            low-degree users their idiosyncratic, averaging-resistant top
            items (the paper's Figure 3 effect).
        num_isolated_components: tiny disconnected social components
            appended after the main graph (the Last.fm crawl has 19 such
            components of 2-7 users; each becomes its own Louvain
            cluster, §6.2).  Their users draw global-pool preferences.
        isolated_component_max_size: size cap for those components (the
            crawl's is 7; sizes are drawn uniformly in [2, cap]).
    """

    name: str
    num_users: int
    num_communities: int
    attachment: int
    inter_community_edges: int
    num_items: int
    mean_prefs_per_user: float
    community_affinity: float = 0.8
    subgroup_affinity: float = 0.45
    subgroups_per_community: int = 4
    pool_fraction: float = 0.05
    zipf_exponent: float = 1.1
    contagion: float = 0.5
    num_isolated_components: int = 0
    isolated_component_max_size: int = 7

    def __post_init__(self) -> None:
        if self.num_users < self.num_communities:
            raise DatasetError(
                f"num_users={self.num_users} < num_communities={self.num_communities}"
            )
        if self.num_communities < 1:
            raise DatasetError("need at least one community")
        if not 0.0 <= self.community_affinity <= 1.0:
            raise DatasetError(
                f"community_affinity must be in [0, 1], got {self.community_affinity}"
            )
        if not 0.0 <= self.subgroup_affinity <= 1.0:
            raise DatasetError(
                f"subgroup_affinity must be in [0, 1], got {self.subgroup_affinity}"
            )
        if self.subgroups_per_community < 1:
            raise DatasetError("subgroups_per_community must be >= 1")
        if not 0.0 <= self.contagion < 1.0:
            raise DatasetError(
                f"contagion must be in [0, 1), got {self.contagion}"
            )
        if self.num_isolated_components < 0:
            raise DatasetError("num_isolated_components must be >= 0")
        if self.isolated_component_max_size < 2:
            raise DatasetError("isolated_component_max_size must be >= 2")
        if self.num_items < 1:
            raise DatasetError("need at least one item")
        if self.mean_prefs_per_user <= 0:
            raise DatasetError("mean_prefs_per_user must be positive")

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------
    @classmethod
    def lastfm_like(cls, scale: float = 1.0) -> "SyntheticDatasetSpec":
        """A Last.fm-shaped dataset (Table 1, left column), scaled.

        At scale 1.0: ~1,892 users, avg social degree ~13, ~3,500 items,
        ~49 preferences per user — matching the crawl's user count, social
        density, and per-user preference volume.  The item universe is kept
        proportionally smaller than the crawl's 17,632 artists so that the
        synthetic popularity distribution still gives most items a few
        edges (the crawl's long tail of single-listener artists carries no
        signal for any recommender).
        """
        _check_scale(scale)
        users = max(60, int(round(1892 * scale)))
        return cls(
            name=f"lastfm-like(x{scale:g})",
            num_users=users,
            num_communities=max(4, int(round(16 * min(scale, 1.0) + 4))),
            attachment=6,
            inter_community_edges=max(10, users // 8),
            num_items=max(100, int(round(3500 * scale))),
            mean_prefs_per_user=49.0,
            community_affinity=0.8,
            subgroup_affinity=0.5,
            subgroups_per_community=6,
            pool_fraction=0.06,
            zipf_exponent=1.1,
            # The crawl has 19 tiny disconnected components (2-7 users)
            # that become their own Louvain clusters (§6.2).
            num_isolated_components=max(0, int(round(19 * min(scale, 1.0)))),
        )

    @classmethod
    def flixster_like(cls, scale: float = 0.1) -> "SyntheticDatasetSpec":
        """A Flixster-shaped dataset (Table 1, right column), scaled.

        The crawl has 137K users; the default scale 0.1 gives ~13.7K users,
        which preserves the property that matters relative to Last.fm —
        much higher average social degree (~18.5) and hence much larger
        communities — while staying laptop-sized.
        """
        _check_scale(scale)
        users = max(100, int(round(137372 * scale)))
        return cls(
            name=f"flixster-like(x{scale:g})",
            num_users=users,
            num_communities=max(6, int(round(46 * min(scale * 10, 1.0)))),
            attachment=9,
            inter_community_edges=max(20, users // 6),
            num_items=max(1500, int(round(48756 * scale * 0.5))),
            mean_prefs_per_user=51.0,
            community_affinity=0.75,
            subgroup_affinity=0.3,
            subgroups_per_community=4,
            pool_fraction=0.04,
            zipf_exponent=1.05,
        )

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------
    def community_sizes(self, rng: np.random.Generator) -> List[int]:
        """Heterogeneous community sizes summing to ``num_users``.

        Real community size distributions are skewed (the paper's Last.fm
        clustering has a largest cluster with 28.5% of the users); sizes
        are drawn from a Dirichlet with concentration < 1 to reproduce the
        skew, with a floor that keeps preferential attachment valid.
        """
        floor = self.attachment + 2
        if self.num_users < self.num_communities * floor:
            # Too small for skewed sizes: just split evenly.
            base = self.num_users // self.num_communities
            sizes = [base] * self.num_communities
            for i in range(self.num_users - base * self.num_communities):
                sizes[i] += 1
            if min(sizes) <= self.attachment:
                raise DatasetError(
                    f"num_users={self.num_users} too small for "
                    f"{self.num_communities} communities with attachment "
                    f"{self.attachment}"
                )
            return sizes
        spare = self.num_users - self.num_communities * floor
        shares = rng.dirichlet([0.7] * self.num_communities)
        sizes = [floor + int(round(spare * s)) for s in shares]
        # Fix rounding drift deterministically on the largest community.
        drift = self.num_users - sum(sizes)
        sizes[int(np.argmax(sizes))] += drift
        return sizes

    def _item_popularity(self, rng: np.random.Generator) -> np.ndarray:
        """Zipf-like popularity over a randomly permuted item universe."""
        ranks = np.arange(1, self.num_items + 1, dtype=float)
        weights = ranks ** (-self.zipf_exponent)
        rng.shuffle(weights)
        return weights / weights.sum()

    def generate(self, seed: int = 0) -> SocialRecDataset:
        """Materialise the dataset deterministically from ``seed``."""
        rng = np.random.default_rng(np.random.SeedSequence((seed, 17)))
        sizes = self.community_sizes(rng)
        social = community_attachment_graph(
            sizes, self.attachment, self.inter_community_edges, rng
        )

        # Per-community item pools over the global popularity distribution,
        # plus finer sub-group pools nested under each community.  Sub-group
        # pools deliberately include items from outside the community pool:
        # real friend circles have niche tastes the wider community does not
        # share, and that divergence is what cluster averaging cannot
        # capture (the paper's approximation error).
        popularity = self._item_popularity(rng)
        pool_size = max(5, int(self.pool_fraction * self.num_items))
        subpool_size = max(3, pool_size // 2)
        pools: List[np.ndarray] = []
        subpools: List[List[np.ndarray]] = []
        for _ in range(len(sizes)):
            pool = rng.choice(
                self.num_items, size=pool_size, replace=False, p=popularity
            )
            pools.append(pool)
            subpools.append(
                [
                    rng.choice(self.num_items, size=subpool_size, replace=False)
                    for _ in range(self.subgroups_per_community)
                ]
            )

        preferences = PreferenceGraph()
        preferences.add_users(range(self.num_users))
        for item in range(self.num_items):
            preferences.add_item(item)

        # Pass 1 — base tastes: each user draws "seed" preferences from the
        # sub-group / community / global mixture.
        base_items: List[List[int]] = [[] for _ in range(self.num_users)]
        boundaries = np.cumsum([0, *sizes])
        for community, pool in enumerate(pools):
            pool_weights = popularity[pool]
            pool_weights = pool_weights / pool_weights.sum()
            size = int(sizes[community])
            groups = subpools[community]
            for user in range(boundaries[community], boundaries[community + 1]):
                offset = user - boundaries[community]
                subgroup = groups[
                    min(
                        int(offset * len(groups) / max(size, 1)),
                        len(groups) - 1,
                    )
                ]
                count = 1 + rng.poisson(max(self.mean_prefs_per_user - 1, 0.0))
                count = min(count, self.num_items)
                seed_count = max(1, int(round(count * (1.0 - self.contagion))))
                chosen: set = set()
                for _ in range(seed_count):
                    draw = rng.random()
                    if draw < self.subgroup_affinity:
                        item = int(subgroup[rng.integers(len(subgroup))])
                    elif draw < self.subgroup_affinity + (
                        1.0 - self.subgroup_affinity
                    ) * self.community_affinity:
                        item = int(pool[rng.choice(len(pool), p=pool_weights)])
                    else:
                        # Residual draws are uniform over the whole
                        # universe: the long tail of rare items that real
                        # crawls have in the thousands.
                        item = int(rng.integers(self.num_items))
                    chosen.add(item)
                base_items[user] = list(chosen)

        # Pass 2 — contagion: the remaining preferences are copied from the
        # base tastes of random social neighbors, so taste correlates with
        # the *actual friend circle*, not just the planted community.
        final_items: List[set] = [set(items) for items in base_items]
        if self.contagion > 0.0:
            for user in range(self.num_users):
                neighbors = list(social.neighbors(user))
                if not neighbors:
                    continue
                count = 1 + rng.poisson(max(self.mean_prefs_per_user - 1, 0.0))
                copy_count = count - len(base_items[user])
                for _ in range(max(copy_count, 0)):
                    nbr = neighbors[int(rng.integers(len(neighbors)))]
                    source = base_items[nbr]
                    if source:
                        final_items[user].add(
                            source[int(rng.integers(len(source)))]
                        )

        # Optional tiny disconnected components (the crawl's 19 stray
        # groups): path-connected so each is one community, with a handful
        # of global-pool preferences per user.
        next_user = self.num_users
        for _ in range(self.num_isolated_components):
            size = int(rng.integers(2, self.isolated_component_max_size + 1))
            members = list(range(next_user, next_user + size))
            next_user += size
            for a, b in zip(members, members[1:]):
                social.add_edge(a, b)
            for user in members:
                preferences.add_user(user)
                count = 1 + int(rng.poisson(max(self.mean_prefs_per_user - 1, 0.0)))
                chosen = {
                    int(rng.integers(self.num_items))
                    for _ in range(min(count, self.num_items))
                }
                for item in chosen:
                    preferences.add_edge(user, item)

        for user in range(self.num_users):
            for item in final_items[user]:
                preferences.add_edge(user, item)

        dataset = SocialRecDataset(
            name=self.name, social=social, preferences=preferences
        )
        dataset.validate()
        return dataset
