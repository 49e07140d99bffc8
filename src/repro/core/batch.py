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
returns a :class:`BatchResult` — a plain dict of
user -> :class:`~repro.types.RecommendationList` carrying a
:class:`BatchStats` with cache hit/miss counters, per-chunk wall times,
and overall rows/sec.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.cache.store import SimilarityStore
from repro.compute.stats import ComputeStats
from repro.core.private import PrivateSocialRecommender
from repro.core.scoring import ranked_list, top_n_rows
from repro.exceptions import ReproError
from repro.obs.adapters import publish_batch_stats
from repro.obs.spans import span
from repro.types import RecommendationList, UserId

__all__ = [
    "BatchResult",
    "BatchStats",
    "batch_recommend_all",
]


@dataclass
class BatchStats:
    """Perf counters for one :func:`batch_recommend_all` call.

    Attributes:
        users_served: number of recommendation lists produced.
        wall_seconds: end-to-end wall time of the call.
        rows_per_second: ``users_served / wall_seconds``.
        num_shards: chunks scored.
        shard_seconds: wall time per chunk, in scoring order.
        fallback_users: zero-signal users, served one by one through the
            recommender's degradation ladder.
        cache_hits / cache_misses: similarity-store lookups during this
            call (both zero when no store was passed).
        kernel_seconds: time spent obtaining the similarity kernel and
            its cluster profile (near zero once the recommender holds
            them).
        compute: the :class:`~repro.compute.stats.ComputeStats` of the
            kernel construction, when one ran during this call (None on a
            warm cache).
    """

    users_served: int = 0
    wall_seconds: float = 0.0
    rows_per_second: float = 0.0
    num_shards: int = 0
    shard_seconds: List[float] = field(default_factory=list)
    fallback_users: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    kernel_seconds: float = 0.0
    compute: Optional[ComputeStats] = None


class BatchResult(Dict[UserId, RecommendationList]):
    """A dict of user -> recommendation list with a ``stats`` attribute.

    Behaves exactly like the plain dict previous versions returned;
    ``stats`` carries the :class:`BatchStats` perf counters.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.stats = BatchStats()


def batch_recommend_all(
    recommender: PrivateSocialRecommender,
    users: Optional[Iterable[UserId]] = None,
    n: Optional[int] = None,
    chunk_size: int = 512,
    *,
    store: Optional[SimilarityStore] = None,
) -> BatchResult:
    """Top-N recommendations for many users at once.

    Args:
        recommender: a *fitted* private recommender.
        users: target users (default: every social-graph user).
        n: list length (default: the recommender's ``n``).
        chunk_size: users per dense chunk; bounds peak memory at
            roughly ``chunk_size * num_items`` floats.
        store: optional persistent similarity cache; the kernel is
            loaded from (or written to) it instead of being recomputed,
            and hit/miss counters are reported on the result's stats.
            Construction counters land on ``stats.compute``.

    Returns:
        :class:`BatchResult` — user -> :class:`RecommendationList`,
        identical to calling ``recommender.recommend`` per user, with
        perf counters on ``.stats``.

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
) -> BatchResult:
    start_time = time.perf_counter()
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
    results = BatchResult()
    stats = results.stats
    compute_stats = ComputeStats()

    kernel_start = time.perf_counter()
    before = store.stats.snapshot() if store is not None else None
    # The recommender's own cache: its per-user queries (the
    # zero-signal users below) reuse this kernel and profile.
    state.similarity.ensure_kernel(store, stats=compute_stats)
    if before is not None:
        stats.cache_hits = store.stats.hits - before.hits
        stats.cache_misses = store.stats.misses - before.misses
    profile = recommender.scorer_.profile()
    stats.kernel_seconds = time.perf_counter() - kernel_start
    if compute_stats.measure:  # a construction actually ran
        stats.compute = compute_stats

    release_t = np.ascontiguousarray(weights.matrix.T)  # (clusters x items)
    for start in range(0, len(target_users), chunk_size):
        chunk = target_users[start : start + chunk_size]
        chunk_start = time.perf_counter()
        stats.num_shards += 1
        with span("batch.chunk"):
            rows = profile.rows(profile.positions(chunk))
            _score_chunk(recommender, results, chunk, rows, release_t, limit)
        stats.shard_seconds.append(time.perf_counter() - chunk_start)

    stats.users_served = len(results)
    stats.wall_seconds = time.perf_counter() - start_time
    if stats.wall_seconds > 0:
        stats.rows_per_second = stats.users_served / stats.wall_seconds
    # Mirror the finished call's counters into the active telemetry
    # registry (no-op when observability is disabled).
    publish_batch_stats(stats)
    return results


def _score_chunk(
    recommender: PrivateSocialRecommender,
    results: BatchResult,
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
    results: BatchResult,
    user: UserId,
    limit: int,
) -> None:
    """Serve one zero-signal user through the ladder (a fallback user)."""
    results[user] = recommender.recommend(user, n=limit)
    results.stats.fallback_users += 1
