"""The non-private top-N social recommender (paper Definitions 3 and 4).

For each target user ``u`` the utility of item ``i`` is

    mu_u^i = sum_{v in sim(u)} sim(u, v) * w(v, i)

computed exactly, with full access to the private preference edges.  This
is the reference model ``A``: the private recommenders approximate it, and
NDCG scores every private ranking against the utilities computed here.
"""

from __future__ import annotations

from typing import Dict, Sequence

import scipy.sparse as sp

from repro.core.base import BaseRecommender, FittedState, NotFittedError
from repro.core.scoring import ExactUtilities
from repro.types import ItemId, UserId

__all__ = ["SocialRecommender"]


class SocialRecommender(BaseRecommender):
    """Exact (non-private) personalised social recommender.

    Example:
        >>> from repro.similarity import CommonNeighbors
        >>> from repro.graph import SocialGraph, PreferenceGraph
        >>> social = SocialGraph([(1, 2), (2, 3), (1, 3)])
        >>> prefs = PreferenceGraph([(1, "a"), (3, "a"), (3, "b")])
        >>> rec = SocialRecommender(CommonNeighbors(), n=2)
        >>> rec.fit(social, prefs).recommend(2).item_ids()
        ['a', 'b']
    """

    def _prepare(self, state: FittedState) -> None:
        self._exact = ExactUtilities(
            state.similarity, state.preferences, state.item_index
        )

    def utility_rows(self, users: Sequence[UserId]) -> sp.csr_matrix:
        """Exact utilities of ``users`` as sparse rows over ``state.items``.

        Raises:
            NotFittedError: when ``fit`` has not run yet.
            NodeNotFoundError: for a user outside the social graph.
        """
        if not self.is_fitted:
            raise NotFittedError(self)
        return self._exact.rows(users)

    def utilities(self, user: UserId) -> Dict[ItemId, float]:
        """Exact utilities of all items with non-zero score for ``user``.

        Items no similar user prefers are omitted — their utility is zero
        by Definition 3, and including the full (huge, sparse) item universe
        would only slow ranking down.  Ranking treats missing items as
        zero-utility, matching the paper.
        """
        row = self.utility_rows([user])
        items = self.state.items
        return dict(zip([items[j] for j in row.indices.tolist()], row.data.tolist()))
