"""Vectorised, cache-backed batch recommendation.

``PrivateSocialRecommender.recommend`` scores one user per call; for
producing recommendations for *every* user (the paper's deployment:
"outputs, for each target user, a personalized recommendation list"),
this module scores blocks of users through :mod:`repro.core.scoring`:

    estimates  =  (S @ C) @ W_hat^T

with the fitted recommender's own kernel ``S`` and profile ``P = S @ C``
(``recommender.scorer_``), so a batch and the per-user queries share one
kernel build.  Rankings are identical to the per-user path — the tests
assert bit-equal rankings — but run at BLAS speed, chunked to bound
memory.

A persistent similarity cache (:mod:`repro.cache`) sits under the
kernel: ``S`` reads only the *public* social graph, so it can be
computed once, persisted as a checksummed artifact, and reused across
runs and processes at zero privacy cost.  Pass a
:class:`~repro.cache.store.SimilarityStore` to skip recomputation
entirely on a warm cache.

Users with no similarity signal are served one by one through the
recommender's degradation ladder, exactly as ``recommend`` serves them.
There is no second scoring path: an exception inside the kernel build
or a chunk's scoring reaches the caller with its own type.  Every call
returns a plain dict of user -> :class:`~repro.types.RecommendationList`
and counts its work in the active telemetry registry:
``batch.users_served``, ``batch.num_shards`` (chunks scored) and
``batch.fallback_users``, timed by the ``batch.recommend_all``,
``batch.kernel`` and ``batch.chunk`` spans.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.cache.store import SimilarityStore
from repro.core.private import PrivateSocialRecommender
from repro.core.scoring import ranked_list, top_n_rows
from repro.exceptions import ReproError
from repro.obs.registry import incr
from repro.obs.spans import span
from repro.types import RecommendationList, UserId

__all__ = ["batch_recommend_all"]


def batch_recommend_all(
    recommender: PrivateSocialRecommender,
    users: Optional[Iterable[UserId]] = None,
    n: Optional[int] = None,
    chunk_size: int = 512,
    *,
    store: Optional[SimilarityStore] = None,
) -> Dict[UserId, RecommendationList]:
    """Top-N recommendations for many users at once.

    Args:
        recommender: a *fitted* private recommender.
        users: target users (default: every social-graph user).
        n: list length (default: the recommender's ``n``).
        chunk_size: users per dense chunk; bounds peak memory at
            roughly ``chunk_size * num_items`` floats.
        store: optional persistent similarity cache; the kernel is
            loaded from (or written to) it instead of being recomputed.

    Returns:
        user -> :class:`RecommendationList`, identical to calling
        ``recommender.recommend`` per user.

    Raises:
        NotFittedError: when the recommender has not been fitted.
        ReproError: if the recommender has no released weights.
        ValueError: for invalid ``n`` or ``chunk_size``.
    """
    with span("batch.recommend_all"):
        return _batch_recommend_all(
            recommender,
            users,
            n,
            chunk_size,
            store=store,
        )


def _batch_recommend_all(
    recommender: PrivateSocialRecommender,
    users: Optional[Iterable[UserId]] = None,
    n: Optional[int] = None,
    chunk_size: int = 512,
    *,
    store: Optional[SimilarityStore] = None,
) -> Dict[UserId, RecommendationList]:
    state = recommender.state
    weights = recommender.noisy_weights_
    clustering = recommender.clustering_
    if weights is None or clustering is None:
        raise ReproError("recommender has no released weights; fit it first")
    limit = recommender.n if n is None else n
    if limit < 1:
        raise ValueError(f"n must be >= 1, got {limit}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")

    target_users = list(users) if users is not None else state.social.users()
    results: Dict[UserId, RecommendationList] = {}
    with span("batch.kernel"):
        # The recommender's own cache: its per-user queries (the
        # zero-signal users below) reuse this kernel and profile.
        state.similarity.ensure_kernel(store)
        profile = recommender.scorer_.profile()

    release_t = np.ascontiguousarray(weights.matrix.T)  # (clusters x items)
    for start in range(0, len(target_users), chunk_size):
        chunk = target_users[start : start + chunk_size]
        incr("batch.num_shards")
        with span("batch.chunk"):
            rows = profile.rows(profile.positions(chunk))
            _score_chunk(recommender, results, chunk, rows, release_t, limit)
    incr("batch.users_served", len(results))
    return results


def _score_chunk(
    recommender: PrivateSocialRecommender,
    results: Dict[UserId, RecommendationList],
    chunk: Sequence[UserId],
    profile: np.ndarray,
    release_t: np.ndarray,
    limit: int,
) -> None:
    """Turn one chunk's profile rows into recommendation lists.

    Zero-signal users route through the per-user path so the degradation
    ladder (and its reported tier) matches ``recommender.recommend``
    exactly.
    """
    items = recommender.noisy_weights_.items
    ranked, scores = top_n_rows(profile, release_t, limit)
    signal = profile.any(axis=1)
    for i, user in enumerate(chunk):
        if signal[i]:
            results[user] = ranked_list(user, items, ranked[i], scores[i])
        else:
            _per_user(recommender, results, user, limit)


def _per_user(
    recommender: PrivateSocialRecommender,
    results: Dict[UserId, RecommendationList],
    user: UserId,
    limit: int,
) -> None:
    """Serve one zero-signal user through the ladder (a fallback user)."""
    results[user] = recommender.recommend(user, n=limit)
    incr("batch.fallback_users")
