"""Each offline layer counts its work into the active registry.

Kernel construction, the sweep engine and batch serving count with
``incr`` where the work happens and time themselves with spans; no
per-object stats copy is kept or published.  Each test runs one layer
under a fresh registry and reads its counters straight back.
"""

import math

import pytest

from repro.compute import build_kernel
from repro.core.batch import batch_recommend_all
from repro.core.private import PrivateSocialRecommender, louvain_strategy
from repro.exceptions import SimilarityError
from repro.experiments.engine import SweepEngine
from repro.experiments.evaluation import EvaluationContext
from repro.obs import telemetry
from repro.resilience.degradation import TIER_PERSONALIZED
from repro.similarity.common_neighbors import CommonNeighbors

MEASURE = CommonNeighbors()


def _layer(registry, prefix):
    """The counters under ``prefix`` recorded in ``registry``."""
    return {
        name: value
        for name, value in registry.snapshot().counters.items()
        if name.startswith(prefix)
    }


@pytest.fixture(scope="module")
def context(lastfm_small):
    return EvaluationContext.build(lastfm_small, MEASURE, max_n=50, seed=0)


@pytest.fixture(scope="module")
def clustering(lastfm_small):
    return louvain_strategy(runs=3, seed=0)(lastfm_small.social)


class TestKernelBuild:
    def test_counts_one_build(self, lastfm_small):
        with telemetry() as registry:
            kernel = build_kernel(lastfm_small.social, MEASURE, block_size=32)
        assert _layer(registry, "compute.") == {
            "compute.builds": 1,
            "compute.measure.cn": 1,
            "compute.rows": kernel.num_users,
            "compute.nnz": kernel.nnz,
            "compute.blocks": -(-kernel.num_users // 32),
        }
        assert registry.snapshot().gauges == {}

    def test_failed_build_counts_nothing(self, lastfm_small):
        class Unregistered(CommonNeighbors):
            name = "no-such-kernel"

        with telemetry() as registry:
            with pytest.raises(SimilarityError):
                build_kernel(lastfm_small.social, Unregistered())
        assert registry.snapshot().counters == {}

    def test_counts_nothing_without_a_registry(self, lastfm_small):
        build_kernel(lastfm_small.social, MEASURE)  # no registry: no-op hooks
        with telemetry() as registry:
            pass
        assert registry.snapshot().counters == {}


class TestSweepEngine:
    def test_counts_measures_cells_and_repeats(
        self, lastfm_small, context, clustering
    ):
        cells = [(math.inf, [10], 1), (1.0, [10, 50], 2), (0.1, [10], 3)]
        with telemetry() as registry:
            SweepEngine(lastfm_small).evaluate_many(context, clustering, cells)
        assert _layer(registry, "engine.") == {
            "engine.measures": 1,
            "engine.cells": 3,
            "engine.repeats": 6,
        }
        assert registry.snapshot().gauges == {}
        assert registry.span_total("engine.evaluate_many/engine.kernel")[0] == 1

    def test_counters_accumulate_across_calls(
        self, lastfm_small, context, clustering
    ):
        engine = SweepEngine(lastfm_small)
        with telemetry() as registry:
            engine.evaluate_many(context, clustering, [(1.0, [10], 2)])
            engine.evaluate_many(
                context, clustering, [(0.5, [10], 3), (0.1, [10, 50], 1)]
            )
        # The kernel is obtained once per engine and measure.
        assert _layer(registry, "engine.") == {
            "engine.measures": 1,
            "engine.cells": 3,
            "engine.repeats": 6,
        }


class TestBatch:
    def test_counts_users_shards_and_fallbacks(self, lastfm_small):
        rec = PrivateSocialRecommender(MEASURE, epsilon=0.5, n=5, seed=2)
        rec.fit(lastfm_small.social, lastfm_small.preferences)
        users = list(lastfm_small.social.users()) + ["ghost-1", "ghost-2"]
        with telemetry() as registry:
            result = batch_recommend_all(rec, users=users, n=5, chunk_size=50)
        # Every user without similarity signal goes down the ladder.
        fallback = sum(
            1 for lists in result.values() if lists.tier != TIER_PERSONALIZED
        )
        assert fallback >= 2
        assert _layer(registry, "batch.") == {
            "batch.users_served": len(users),
            "batch.num_shards": -(-len(users) // 50),
            "batch.fallback_users": fallback,
        }
        assert registry.snapshot().gauges == {}
