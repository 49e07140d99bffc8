"""Micro-benchmarks of the framework's computational components.

Not a paper artifact — these pytest-benchmark timings document the cost
profile of the pipeline (similarity rows, the noisy-release module A_w,
end-to-end fit, per-user and batch recommendation) so regressions are
visible.  CI runs this module with ``--benchmark-json`` and gates merges
on ``benchmarks/check_regression.py`` (see docs/performance.md).
"""

import math

import numpy as np
import pytest

from repro.cache import SimilarityStore
from repro.community.louvain import best_louvain_clustering
from repro.core.batch import batch_recommend_all
from repro.core.cluster_weights import noisy_cluster_item_weights
from repro.core.private import PrivateSocialRecommender
from repro.core.recommender import SocialRecommender
from repro.obs import telemetry
from repro.similarity.adamic_adar import AdamicAdar
from repro.similarity.common_neighbors import CommonNeighbors
from repro.similarity.graph_distance import GraphDistance
from repro.similarity.katz import Katz


@pytest.fixture(scope="module")
def clustering(lastfm_bench):
    return best_louvain_clustering(lastfm_bench.social, runs=3, seed=0).clustering


class TestSimilarityRowCost:
    @pytest.mark.parametrize(
        "measure",
        [CommonNeighbors(), AdamicAdar(), GraphDistance(), Katz()],
        ids=["cn", "aa", "gd", "kz"],
    )
    def test_benchmark_similarity_row(self, lastfm_bench, measure, benchmark):
        graph = lastfm_bench.social
        users = graph.users()[:25]

        def run():
            for u in users:
                measure.similarity_row(graph, u)

        benchmark(run)


class TestMechanismCost:
    def test_benchmark_noisy_release(self, lastfm_bench, clustering, benchmark):
        """Module A_w: the only privacy-spending step of Algorithm 1."""
        rng = np.random.default_rng(0)
        benchmark(
            lambda: noisy_cluster_item_weights(
                lastfm_bench.preferences, clustering, 0.1, rng=rng
            )
        )

    def test_benchmark_private_fit(self, lastfm_bench, clustering, benchmark):
        def run():
            rec = PrivateSocialRecommender(
                CommonNeighbors(),
                epsilon=0.1,
                n=50,
                clustering_strategy=lambda g: clustering,
                seed=0,
            )
            rec.fit(lastfm_bench.social, lastfm_bench.preferences)
            return rec

        rec = benchmark(run)
        assert rec.is_fitted

    def test_benchmark_private_recommend(self, lastfm_bench, clustering, benchmark):
        rec = PrivateSocialRecommender(
            CommonNeighbors(),
            epsilon=0.1,
            n=50,
            clustering_strategy=lambda g: clustering,
            seed=0,
        )
        rec.fit(lastfm_bench.social, lastfm_bench.preferences)
        users = lastfm_bench.social.users()[:50]
        benchmark(lambda: [rec.recommend(u) for u in users])

    def test_benchmark_exact_recommend(self, lastfm_bench, benchmark):
        rec = SocialRecommender(CommonNeighbors(), n=50)
        rec.fit(lastfm_bench.social, lastfm_bench.preferences)
        users = lastfm_bench.social.users()[:50]
        benchmark(lambda: [rec.recommend(u) for u in users])


class TestBatchThroughput:
    """The serving workload the throughput layer exists for.

    ``check_regression.py`` watches these two the closest: a >25%
    normalized slowdown of either fails the CI benchmark job.
    """

    @pytest.fixture()
    def fitted(self, lastfm_bench, clustering):
        rec = PrivateSocialRecommender(
            CommonNeighbors(),
            epsilon=0.1,
            n=20,
            clustering_strategy=lambda g: clustering,
            seed=0,
        )
        rec.fit(lastfm_bench.social, lastfm_bench.preferences)
        return rec

    def test_benchmark_batch_recommend_all(self, fitted, benchmark):
        """Cold batch serving: kernel + (S @ C) @ W_hat^T every round."""
        results = benchmark(lambda: batch_recommend_all(fitted, n=20))
        # Counted outside the timed rounds, under a registry.
        with telemetry() as registry:
            batch_recommend_all(fitted, n=20)
        assert registry.counter("batch.users_served") == len(results) > 0

    def test_benchmark_batch_warm_cache(self, fitted, tmp_path, benchmark):
        """Warm-cache batch serving: the kernel comes from the store."""
        store = SimilarityStore(str(tmp_path / "kernels"))
        batch_recommend_all(fitted, n=20, store=store)  # warm it once

        def run():
            return batch_recommend_all(fitted, n=20, store=store)

        assert benchmark(run)
        with telemetry() as registry:
            run()
        assert registry.counter("cache.memory_hit") == 1
        assert registry.counter("cache.miss") == 0


class TestScalingSanity:
    def test_private_fit_scales_with_items(self, lastfm_bench, clustering):
        """A_w is linear in |I| x |clusters|; verify the noise matrix shape
        rather than timing (timing-based scaling asserts are flaky)."""
        rec = PrivateSocialRecommender(
            CommonNeighbors(),
            epsilon=math.inf,
            n=10,
            clustering_strategy=lambda g: clustering,
        )
        rec.fit(lastfm_bench.social, lastfm_bench.preferences)
        matrix = rec.noisy_weights_.matrix
        assert matrix.shape == (
            lastfm_bench.preferences.num_items,
            clustering.num_clusters,
        )
