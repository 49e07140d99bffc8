"""Unit tests for the similarity registry and row cache."""

import numpy as np
import pytest

from repro.exceptions import NodeNotFoundError, SimilarityError
from repro.obs import telemetry
from repro.similarity.adamic_adar import AdamicAdar
from repro.similarity.base import (
    SimilarityCache,
    get_measure,
    list_measures,
    register_measure,
)
from repro.similarity.common_neighbors import CommonNeighbors
from repro.similarity.graph_distance import GraphDistance
from repro.similarity.katz import Katz


class TestRegistry:
    def test_builtin_measures_registered(self):
        names = list_measures()
        for name in ("cn", "aa", "gd", "kz"):
            assert name in names

    def test_get_measure_by_name(self):
        assert isinstance(get_measure("cn"), CommonNeighbors)
        assert isinstance(get_measure("aa"), AdamicAdar)
        assert isinstance(get_measure("gd"), GraphDistance)
        assert isinstance(get_measure("kz"), Katz)

    def test_get_measure_case_insensitive(self):
        assert isinstance(get_measure("CN"), CommonNeighbors)

    def test_unknown_measure_raises_with_known_list(self):
        with pytest.raises(SimilarityError, match="cn"):
            get_measure("nope")

    def test_get_measure_returns_fresh_instances(self):
        assert get_measure("cn") is not get_measure("cn")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SimilarityError):
            register_measure("cn", CommonNeighbors)

    def test_custom_registration(self):
        class Custom(CommonNeighbors):
            name = "custom-test-measure"

        register_measure(Custom.name, Custom)
        assert isinstance(get_measure("custom-test-measure"), Custom)


class TestSimilarityCache:
    def test_row_is_cached(self, triangle_graph):
        calls = []

        class Counting(CommonNeighbors):
            def similarity_row(self, graph, user):
                calls.append(user)
                return super().similarity_row(graph, user)

        # Rows come from the one kernel, built once on the first query.
        cache = SimilarityCache(Counting(), triangle_graph)
        with telemetry() as registry:
            cache.row(1)
            cache.row(1)
        assert calls == []
        assert registry.counter("compute.builds") == 1

    def test_cached_values_correct(self, triangle_graph):
        cache = SimilarityCache(CommonNeighbors(), triangle_graph)
        assert cache.similarity(1, 2) == 1.0
        assert cache.similarity(1, 1) == 0.0

    def test_precompute_warms_all(self, triangle_graph):
        cache = SimilarityCache(CommonNeighbors(), triangle_graph)
        cache.precompute()
        assert len(cache) == 3

    def test_precompute_subset(self, triangle_graph):
        # A one-user query builds the kernel for the whole graph.
        cache = SimilarityCache(CommonNeighbors(), triangle_graph)
        assert len(cache) == 0
        cache.row(1)
        assert len(cache) == 3

    def test_exposes_measure_and_graph(self, triangle_graph):
        measure = CommonNeighbors()
        cache = SimilarityCache(measure, triangle_graph)
        assert cache.measure is measure
        assert cache.graph is triangle_graph

    def test_workload_svd_is_computed_once_and_held_read_only(
        self, two_communities_graph
    ):
        cache = SimilarityCache(CommonNeighbors(), two_communities_graph)
        with telemetry() as registry:
            first = cache.workload_svd()
            second = cache.workload_svd()
            paths = registry.snapshot().span_totals
        assert registry.counter("similarity.workload_svds") == 1
        assert registry.counter("compute.builds") == 1
        assert any(path.endswith("similarity.workload_svd") for path in paths)
        assert len(first) == 3
        assert all(a is b for a, b in zip(first, second))
        users = two_communities_graph.users()
        workload = np.array(
            [[cache.row(u).get(v, 0.0) for v in users] for u in users]
        )
        expected = np.linalg.svd(workload, full_matrices=False)
        for held, factor in zip(first, expected):
            assert not held.flags.writeable
            assert np.array_equal(held, factor)
        with pytest.raises(ValueError):
            first[1][0] = 0.0

    def test_user_outside_the_kernel_raises(self, triangle_graph):
        cache = SimilarityCache(CommonNeighbors(), triangle_graph)
        with pytest.raises(NodeNotFoundError):
            cache.row(99)
        with pytest.raises(NodeNotFoundError):
            cache.row_matrix([1, 99])


class TestCacheBackends:
    def test_unknown_backend_rejected(self, triangle_graph):
        # Rows have one source, the kernel: the cache takes no backend.
        with pytest.raises(TypeError):
            SimilarityCache(CommonNeighbors(), triangle_graph, backend="python")
        cache = SimilarityCache(CommonNeighbors(), triangle_graph)
        with pytest.raises(TypeError):
            cache.precompute(backend="python")

    def test_vectorized_rows_match_python(self, two_communities_graph):
        measure = AdamicAdar()
        cache = SimilarityCache(measure, two_communities_graph)
        for user in two_communities_graph.users():
            expected = measure.similarity_row(two_communities_graph, user)
            actual = cache.row(user)
            assert set(actual) == set(expected)
            for other, score in expected.items():
                assert actual[other] == pytest.approx(score, abs=1e-9)

    def test_vectorized_row_skips_per_user_measure(self, triangle_graph):
        calls = []

        class Counting(CommonNeighbors):
            def similarity_row(self, graph, user):
                calls.append(user)
                return super().similarity_row(graph, user)

        cache = SimilarityCache(Counting(), triangle_graph)
        cache.row(1)
        assert calls == []
        assert len(cache) == 3

    def test_precompute_records_compute_stats(self, triangle_graph):
        with telemetry() as registry:
            cache = SimilarityCache(CommonNeighbors(), triangle_graph)
            assert registry.counter("compute.builds") == 0
            cache.precompute()
        assert registry.counter("compute.builds") == 1
        assert registry.counter("compute.measure.cn") == 1
        assert registry.counter("compute.rows") == 3

    def test_auto_backend_degrades_for_unsupported_measure(self, triangle_graph):
        # Jaccard once had no kernel and ran per-user rows; it now builds
        # one like every registered measure, with the same rows.
        from repro.similarity.neighborhood import Jaccard

        cache = SimilarityCache(Jaccard(), triangle_graph)
        with telemetry() as registry:
            assert cache.row(1) == Jaccard().similarity_row(triangle_graph, 1)
        assert registry.counter("compute.measure.jc") == 1

    def test_similarity_set_drops_zero_scores(self, triangle_graph):
        cache = SimilarityCache(CommonNeighbors(), triangle_graph)
        kernel = cache.ensure_kernel().matrix
        # A kernel carrying an explicit stored zero, e.g. one loaded from
        # an artifact written without eliminate_zeros.
        kernel.matrix.data[kernel.matrix.indices == kernel.index[3]] = 0.0
        assert cache.similarity_set(1) == frozenset({2})

    def test_similarity_set_matches_measure(self, triangle_graph):
        cache = SimilarityCache(CommonNeighbors(), triangle_graph)
        assert cache.similarity_set(1) == CommonNeighbors().similarity_set(
            triangle_graph, 1
        )
