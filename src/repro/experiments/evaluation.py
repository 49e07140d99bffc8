"""Shared evaluation machinery for the paper's experiments.

Every experiment follows the same recipe (paper Section 6.2):

1. Fit the *non-private* recommender once and record, per evaluation user,
   the ideal utilities and the reference top-N ranking.
2. Fit the candidate (private) recommender, produce its rankings for the
   same users, and score them with NDCG@N against the reference.
3. Repeat step 2 over independent noise draws and average (the paper
   repeats 10 times).

:class:`EvaluationContext` caches step 1 so sweeping epsilon, N, or the
mechanism never re-pays the exact-recommender cost.  For large datasets it
supports the paper's Flixster protocol: evaluate a random user subset while
every user still participates in clustering and utility computation.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.base import BaseRecommender
from repro.core.recommender import SocialRecommender
from repro.datasets.dataset import SocialRecDataset
from repro.exceptions import ExperimentError
from repro.metrics.ndcg import average_ndcg
from repro.metrics.ranking import rank_items
from repro.obs.spans import span
from repro.similarity.base import SimilarityCache, SimilarityMeasure
from repro.types import ItemId, UserId

__all__ = ["EvaluationContext", "evaluate_recommender", "evaluate_factory"]

# A factory builds an unfitted recommender for one repeat; it receives the
# repeat's noise seed so each repeat draws independent noise.
RecommenderFactory = Callable[[int], BaseRecommender]


@dataclass
class EvaluationContext:
    """The cached non-private reference for one (dataset, measure) pair.

    Attributes:
        dataset: the evaluation dataset.
        measure: the similarity measure under test.
        users: the evaluation users (possibly a sample).
        max_n: the largest N any caller will request.
        reference_rankings: per-user non-private top-``max_n`` rankings.
        ideal_utilities: per-user true utility maps.
        similarity: the reference's similarity cache, whose kernel the
            sweep engine reuses and :func:`evaluate_recommender` fits share
            (None for a hand-assembled context).
        utility_rows: the ideal utilities as sparse rows, one per user,
            over the dataset's items: the matrix the sweep engine scores
            against (None for a hand-assembled context).
    """

    dataset: SocialRecDataset
    measure: SimilarityMeasure
    users: List[UserId]
    max_n: int
    reference_rankings: Dict[UserId, List[ItemId]] = field(repr=False)
    ideal_utilities: Dict[UserId, Dict[ItemId, float]] = field(repr=False)
    similarity: Optional[SimilarityCache] = field(
        default=None, init=False, repr=False, compare=False
    )
    utility_rows: Optional[sp.csr_matrix] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def build(
        cls,
        dataset: SocialRecDataset,
        measure: SimilarityMeasure,
        max_n: int = 100,
        sample_size: Optional[int] = None,
        seed: int = 0,
    ) -> "EvaluationContext":
        """Fit the exact recommender and snapshot the reference answers.

        Args:
            dataset: the evaluation dataset.
            measure: similarity measure.
            max_n: largest recommendation-list length to support.
            sample_size: evaluate only this many randomly chosen users
                (None = all users).  Matches the paper's 10K-user Flixster
                sample; the full graph still drives clustering/similarity.
            seed: sampling seed.

        Raises:
            ExperimentError: if the dataset has no users, or the sample
                size is not positive.
        """
        all_users = dataset.social.users()
        if not all_users:
            raise ExperimentError("cannot evaluate an empty dataset")
        if sample_size is not None:
            if sample_size < 1:
                raise ExperimentError(
                    f"sample_size must be >= 1, got {sample_size}"
                )
            if sample_size < len(all_users):
                rng = np.random.default_rng(np.random.SeedSequence((seed, 23)))
                chosen = rng.choice(len(all_users), size=sample_size, replace=False)
                all_users = [all_users[int(i)] for i in sorted(chosen)]
        with span("experiments.reference"):
            reference = SocialRecommender(measure, n=max_n)
            reference.fit(dataset.social, dataset.preferences)
            utilities = reference.utility_rows(all_users)
            ideal, rankings = _reference_answers(
                utilities, all_users, reference.state.items, max_n
            )
            context = cls(
                dataset=dataset,
                measure=measure,
                users=list(all_users),
                max_n=max_n,
                reference_rankings=rankings,
                ideal_utilities=ideal,
            )
            context.similarity = reference.state.similarity
            context.utility_rows = utilities
        return context

    def ndcg_of_rankings(
        self, rankings: Dict[UserId, Sequence[ItemId]], n: int
    ) -> float:
        """Average NDCG@n of candidate rankings against the reference.

        Raises:
            ExperimentError: when ``n`` exceeds ``max_n`` (the reference
                rankings would be silently truncated short).
        """
        if n > self.max_n:
            raise ExperimentError(
                f"requested n={n} exceeds the context's max_n={self.max_n}"
            )
        return average_ndcg(
            rankings,
            self.reference_rankings,
            self.ideal_utilities,
            n,
            users=self.users,
        )

    def per_user_ndcg_of_rankings(
        self, rankings: Dict[UserId, Sequence[ItemId]], n: int
    ) -> Dict[UserId, float]:
        """NDCG@n per evaluation user (used by the Figure 3 analysis)."""
        from repro.metrics.ndcg import ndcg_at_n

        if n > self.max_n:
            raise ExperimentError(
                f"requested n={n} exceeds the context's max_n={self.max_n}"
            )
        return {
            u: ndcg_at_n(
                rankings[u], self.reference_rankings[u], self.ideal_utilities[u], n
            )
            for u in self.users
        }


def _reference_answers(
    utilities: sp.csr_matrix,
    users: Sequence[UserId],
    items: Sequence[ItemId],
    limit: int,
) -> Tuple[Dict[UserId, Dict[ItemId, float]], Dict[UserId, List[ItemId]]]:
    """Each user's ideal-utility map and reference top-``limit`` ranking.

    A map holds the items stored in the user's row of ``utilities``.  The
    ranking orders them as :func:`rank_items` does — descending utility,
    then ascending item identifier — by one ``lexsort`` over identifier
    ranks when the identifiers sort, else through ``rank_items`` itself.
    """
    try:
        by_identifier = sorted(range(len(items)), key=items.__getitem__)
    except TypeError:  # identifiers of mixed types
        identifier_rank = None
    else:
        identifier_rank = np.empty(len(items), dtype=np.intp)
        identifier_rank[by_identifier] = np.arange(len(items))
    ideal: Dict[UserId, Dict[ItemId, float]] = {}
    rankings: Dict[UserId, List[ItemId]] = {}
    bounds = zip(users, utilities.indptr[:-1], utilities.indptr[1:])
    for user, start, stop in bounds:
        columns = utilities.indices[start:stop]
        values = utilities.data[start:stop]
        ideal[user] = dict(zip([items[j] for j in columns.tolist()], values.tolist()))
        if identifier_rank is None:
            rankings[user] = rank_items(ideal[user], n=limit)
        else:
            order = np.lexsort((identifier_rank[columns], -values))[:limit]
            rankings[user] = [items[j] for j in columns[order].tolist()]
    return ideal, rankings


def evaluate_recommender(
    context: EvaluationContext, recommender: BaseRecommender, n: int
) -> float:
    """Fit ``recommender`` on the context's dataset and score NDCG@n.

    A recommender on the context's own measure object fits with the
    reference's similarity cache, so every fit of one context shares its
    kernel and workload SVD; any other recommender, including a wrapper
    with no ``measure``, is fitted with ``fit(social, preferences)`` alone.
    """
    social, preferences = context.dataset.social, context.dataset.preferences
    shared = context.similarity
    if shared is not None and getattr(recommender, "measure", None) is shared.measure:
        recommender.fit(social, preferences, similarity=shared)
    else:
        recommender.fit(social, preferences)
    rankings = {
        u: recommender.recommend(u, n=n).item_ids() for u in context.users
    }
    return context.ndcg_of_rankings(rankings, n)


def evaluate_factory(
    context: EvaluationContext,
    factory: RecommenderFactory,
    n: int,
    repeats: int = 10,
    base_seed: int = 0,
) -> tuple:
    """Mean and std of NDCG@n over ``repeats`` independent noise draws.

    Args:
        context: the cached reference.
        factory: builds an unfitted recommender from a repeat seed.
        n: NDCG cutoff.
        repeats: number of noise draws (the paper uses 10).
        base_seed: repeat seeds are ``base_seed + repeat_index``.

    Returns:
        ``(mean, std)``; std is 0.0 for a single repeat.

    Raises:
        ExperimentError: if ``repeats`` < 1.
    """
    if repeats < 1:
        raise ExperimentError(f"repeats must be >= 1, got {repeats}")
    scores = [
        evaluate_recommender(context, factory(base_seed + r), n)
        for r in range(repeats)
    ]
    mean = statistics.fmean(scores)
    std = statistics.pstdev(scores) if len(scores) > 1 else 0.0
    return (mean, std)
