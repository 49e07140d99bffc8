"""Unit tests for the vectorised batch recommendation path."""

import math

import pytest

from repro.cache import SimilarityStore
from repro.compute import build_kernel
from repro.core.batch import batch_recommend_all
from repro.core.private import PrivateSocialRecommender
from repro.exceptions import SimilarityError
from repro.obs import telemetry
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.similarity.adamic_adar import AdamicAdar
from repro.similarity.common_neighbors import CommonNeighbors
from repro.similarity.graph_distance import GraphDistance
from repro.similarity.katz import Katz
from repro.similarity.neighborhood import Jaccard, ResourceAllocation
from repro.types import RankedItem


def _fitted(lastfm_small, measure, epsilon=0.5, seed=2):
    rec = PrivateSocialRecommender(measure, epsilon=epsilon, n=10, seed=seed)
    rec.fit(lastfm_small.social, lastfm_small.preferences)
    return rec


class TestEquivalenceWithSequentialPath:
    @pytest.mark.parametrize(
        "measure",
        [CommonNeighbors(), AdamicAdar(), GraphDistance(), Katz(),
         ResourceAllocation()],
        ids=["cn", "aa", "gd", "kz", "ra"],
    )
    def test_batch_matches_per_user(self, lastfm_small, measure):
        rec = _fitted(lastfm_small, measure)
        batch = batch_recommend_all(rec, n=10)
        for user in lastfm_small.social.users()[:30]:
            expected = rec.recommend(user, n=10)
            assert batch[user].item_ids() == expected.item_ids(), user
            assert batch[user].utilities() == pytest.approx(expected.utilities())

    def test_small_chunks_equivalent(self, lastfm_small):
        rec = _fitted(lastfm_small, CommonNeighbors())
        whole = batch_recommend_all(rec, n=5, chunk_size=10_000)
        chunked = batch_recommend_all(rec, n=5, chunk_size=7)
        for user, result in whole.items():
            assert chunked[user].item_ids() == result.item_ids()

    def test_user_subset(self, lastfm_small):
        rec = _fitted(lastfm_small, CommonNeighbors())
        subset = lastfm_small.social.users()[:5]
        results = batch_recommend_all(rec, users=subset, n=5)
        assert set(results) == set(subset)

    def test_fallback_for_unsupported_measure(self, lastfm_small):
        # Jaccard, once served per user, now scores through its kernel.
        rec = _fitted(lastfm_small, Jaccard())
        batch = batch_recommend_all(rec, n=5)
        for user in lastfm_small.social.users()[:10]:
            assert batch[user].item_ids() == rec.recommend(user, n=5).item_ids()

    def test_nondefault_gd_cutoff_vectorises(self, lastfm_small):
        # The blocked BFS kernel covers any cutoff, not just the paper's
        # d <= 2 — deeper cutoffs stay on the vectorised path now.
        rec = _fitted(lastfm_small, GraphDistance(max_distance=3))
        batch = batch_recommend_all(rec, n=5)
        for user in lastfm_small.social.users()[:10]:
            assert batch[user].item_ids() == rec.recommend(user, n=5).item_ids()

    def test_eps_inf_equivalence(self, lastfm_small):
        rec = _fitted(lastfm_small, CommonNeighbors(), epsilon=math.inf)
        batch = batch_recommend_all(rec, n=10)
        for user in lastfm_small.social.users()[:20]:
            assert batch[user].item_ids() == rec.recommend(user, n=10).item_ids()


class TestListConstruction:
    def test_batch_builds_no_ranked_item(self, lastfm_small, monkeypatch):
        # A list stores its ids and utilities as two tuples; RankedItem
        # views are built only when a caller reads ``items`` or iterates.
        rec = _fitted(lastfm_small, CommonNeighbors())
        users = list(lastfm_small.social.users()) + ["ghost"]
        built = []
        init = RankedItem.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args or kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RankedItem, "__init__", counting_init)
        with telemetry() as registry:
            batch = batch_recommend_all(rec, users=users, n=10)
        assert built == []
        assert registry.counter("batch.fallback_users") >= 1
        monkeypatch.undo()
        for user in users:
            expected = rec.recommend(user, n=10)
            assert batch[user].item_ids() == expected.item_ids(), user
            assert batch[user].tier == expected.tier, user
            assert batch[user].utilities() == pytest.approx(expected.utilities())


class TestSupportPredicate:
    def test_supported_measures(self, triangle_graph):
        for measure in (
            CommonNeighbors(),
            AdamicAdar(),
            ResourceAllocation(),
            GraphDistance(max_distance=2),
            # The blocked BFS kernel supports any cutoff.
            GraphDistance(max_distance=3),
            Katz(max_length=3),
            Jaccard(),
        ):
            assert build_kernel(triangle_graph, measure).num_users == 3

    def test_unsupported_configurations(self, triangle_graph):
        class Unregistered(CommonNeighbors):
            name = "no-such-kernel"

        with pytest.raises(ValueError):
            Katz(max_length=4)
        with pytest.raises(SimilarityError):
            build_kernel(triangle_graph, Unregistered())


class TestValidation:
    def test_unfitted_rejected(self):
        from repro.core.base import NotFittedError

        rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=0.5)
        with pytest.raises(NotFittedError):
            batch_recommend_all(rec)

    def test_invalid_n(self, lastfm_small):
        rec = _fitted(lastfm_small, CommonNeighbors())
        with pytest.raises(ValueError):
            batch_recommend_all(rec, n=0)

    def test_invalid_chunk_size(self, lastfm_small):
        rec = _fitted(lastfm_small, CommonNeighbors())
        with pytest.raises(ValueError):
            batch_recommend_all(rec, chunk_size=0)

    def test_unknown_user_degrades_to_global_popularity(self, lastfm_small):
        rec = _fitted(lastfm_small, CommonNeighbors(), epsilon=math.inf)
        results = batch_recommend_all(rec, users=["ghost"], n=5)
        # A user outside the graph has no similarity signal; the batch
        # path must serve the same degraded global-popularity list (and
        # tier) as the per-user path instead of a meaningless zero list.
        assert len(results["ghost"]) == 5
        assert results["ghost"].tier == "global-popularity"
        assert results["ghost"] == rec.recommend("ghost", n=5)


class TestKernelFault:
    pytestmark = pytest.mark.faults

    def test_kernel_build_fault_propagates(self, lastfm_small):
        # A kernel build that keeps failing is attempted once and its error
        # reaches the caller; no second path builds the kernel again.
        rec = _fitted(lastfm_small, CommonNeighbors())
        plan = FaultPlan(
            [FaultSpec(site="compute.kernel.block", kind="raise", repeat=True)]
        )
        with plan.installed():
            with pytest.raises(OSError, match="compute.kernel.block"):
                batch_recommend_all(rec, n=5)
        assert plan.calls_to("compute.kernel.block") == 1


class TestSimilarityCacheIntegration:
    def test_warm_cache_skips_all_similarity_recomputation(
        self, lastfm_small, tmp_path, monkeypatch
    ):
        rec = _fitted(lastfm_small, CommonNeighbors())
        store = SimilarityStore(str(tmp_path / "kernels"))
        with telemetry() as registry:
            cold = batch_recommend_all(rec, n=10, store=store)
        assert _lookups(registry) == {"cache.miss": 1}

        # Any kernel computation on the warm path is a bug, not just slow.
        import repro.cache.store as store_module

        def explode(*_args, **_kwargs):
            raise AssertionError("kernel recomputed despite a warm cache")

        monkeypatch.setattr(store_module, "build_kernel", explode)
        with telemetry() as registry:
            warm = batch_recommend_all(rec, n=10, store=store)
        assert _lookups(registry) == {"cache.memory_hit": 1}
        for user, expected in cold.items():
            assert warm[user].item_ids() == expected.item_ids()

    def test_warm_cache_serves_from_disk_in_a_new_store(
        self, lastfm_small, tmp_path
    ):
        rec = _fitted(lastfm_small, CommonNeighbors())
        directory = str(tmp_path / "kernels")
        batch_recommend_all(rec, n=10, store=SimilarityStore(directory))
        fresh = SimilarityStore(directory)
        with telemetry() as registry:
            batch_recommend_all(rec, n=10, store=fresh)
        assert _lookups(registry) == {"cache.disk_hit": 1}

    def test_unsupported_measure_bypasses_the_store(self, lastfm_small, tmp_path):
        class Unregistered(CommonNeighbors):
            name = "no-such-kernel"

        rec = _fitted(lastfm_small, Unregistered())
        store = SimilarityStore(str(tmp_path / "kernels"))
        with pytest.raises(SimilarityError):
            batch_recommend_all(rec, n=5, store=store)
        assert store.info() == []

    def test_every_measure_goes_through_the_store(self, lastfm_small, tmp_path):
        rec = _fitted(lastfm_small, Jaccard())
        store = SimilarityStore(str(tmp_path / "kernels"))
        with telemetry() as registry:
            batch_recommend_all(rec, n=5, store=store)
        assert _lookups(registry) == {"cache.miss": 1}
        assert len(store.info()) == 1


class TestBatchStats:
    def test_result_is_a_dict_with_stats(self, lastfm_small):
        rec = _fitted(lastfm_small, CommonNeighbors())
        with telemetry() as registry:
            result = batch_recommend_all(rec, n=5, chunk_size=64)
        assert type(result) is dict
        # The counters land in the registry, and the time in spans.
        served = len(result)
        assert served > 64
        shards = -(-served // 64)
        counters = registry.snapshot().counters
        assert counters["batch.users_served"] == served
        assert counters["batch.num_shards"] == shards
        assert counters["compute.builds"] == 1
        assert not any(name.startswith("batch.cache") for name in counters)
        assert registry.snapshot().gauges == {}
        assert registry.span_total("batch.recommend_all")[0] == 1
        assert registry.span_total("batch.recommend_all/batch.kernel")[0] == 1
        assert registry.span_total("batch.recommend_all/batch.chunk")[0] == shards

    def test_per_user_fallback_counts_everyone(self, lastfm_small):
        # Users outside the graph have no similarity signal: every one of
        # them is served through the per-user ladder, and counted.
        rec = _fitted(lastfm_small, CommonNeighbors())
        ghosts = [f"ghost-{i}" for i in range(3)]
        with telemetry() as registry:
            result = batch_recommend_all(rec, users=ghosts, n=5)
        assert set(result) == set(ghosts)
        assert registry.counter("batch.fallback_users") == len(result) == 3
        for ghost in ghosts:
            assert result[ghost] == rec.recommend(ghost, n=5)

    def test_fallback_users_are_not_served_tiers(self, lastfm_small):
        # ``serve.tier.*`` counts responses of the serving tier; a batch
        # serves nothing over HTTP, even through the per-user ladder.
        rec = _fitted(lastfm_small, CommonNeighbors())
        ghosts = [f"ghost-{i}" for i in range(3)]
        with telemetry() as registry:
            result = batch_recommend_all(rec, users=ghosts, n=5)
        assert {lists.tier for lists in result.values()} == {"global-popularity"}
        counters = registry.snapshot().counters
        assert counters["batch.fallback_users"] == 3
        assert not [name for name in counters if name.startswith("serve.tier.")]


def _lookups(registry):
    """The similarity store's lookup counters recorded in ``registry``."""
    return {
        name: value
        for name, value in registry.snapshot().counters.items()
        if name in ("cache.memory_hit", "cache.disk_hit", "cache.miss")
    }
