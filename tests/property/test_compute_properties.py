"""Property tests: the vectorised compute layer equals the reference.

Two independent implementations guard each other — the per-user python
rows and the dict-based Louvain oracle are the semantic ground truth,
and the CSR/flat-array code must reproduce them (AA/RA rows within
1e-9, every other row and every partition exactly) on arbitrary graphs,
not just the fixtures.
"""

import contextlib
import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.community.louvain import louvain
from repro.compute.kernels import build_kernel
from repro.similarity.adamic_adar import AdamicAdar
from repro.similarity.common_neighbors import CommonNeighbors
from repro.similarity.graph_distance import GraphDistance
from repro.similarity.katz import Katz
from repro.similarity.neighborhood import (
    CosineSimilarity,
    Jaccard,
    PreferentialAttachment,
    ResourceAllocation,
)

from tests.oracles import louvain as oracle

from .strategies import planted_graphs, social_graphs

louvain_module = importlib.import_module("repro.community.louvain")

MEASURES = [
    CommonNeighbors(),
    AdamicAdar(),
    ResourceAllocation(),
    GraphDistance(),
    GraphDistance(max_distance=3),
    Katz(),
    Jaccard(),
    CosineSimilarity(),
    PreferentialAttachment(),
]
MEASURE_IDS = ["cn", "aa", "ra", "gd2", "gd3", "kz", "jc", "cos", "pa"]


class TestKernelEquivalence:
    @pytest.mark.parametrize("measure", MEASURES, ids=MEASURE_IDS)
    @given(graph=social_graphs())
    @settings(max_examples=20, deadline=None)
    def test_rows_match_python_measure(self, graph, measure):
        kernel = build_kernel(graph, measure)
        for user in graph.users():
            expected = measure.similarity_row(graph, user)
            actual = kernel.row(user)
            if measure.name not in ("aa", "ra"):
                assert actual == expected
                continue
            assert set(actual) == set(expected)
            for other, score in expected.items():
                assert actual[other] == pytest.approx(score, abs=1e-9)

    @given(graph=social_graphs(), block_size=st.integers(1, 8))
    @settings(max_examples=15, deadline=None)
    def test_block_size_never_changes_the_kernel(self, graph, block_size):
        reference = build_kernel(graph, CommonNeighbors())
        blocked = build_kernel(graph, CommonNeighbors(), block_size=block_size)
        assert (blocked.matrix != reference.matrix).nnz == 0


class TestLouvainEquivalence:
    @given(graph=social_graphs(max_users=16, max_extra_edges=30),
           seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_identical_partitions(self, graph, seed):
        ref = oracle.louvain(graph, np.random.default_rng(seed))
        vec = louvain(graph, np.random.default_rng(seed))
        assert vec.clustering.assignment() == ref.clustering.assignment()
        assert vec.modularity == ref.modularity
        assert vec.num_levels == ref.num_levels

    @given(graph=planted_graphs(), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_planted_partitions_match_where_the_scan_skips(self, graph, seed):
        # Community structure settles most nodes within a pass or two, so
        # the scan skips a quarter to half of these visits.  About half of
        # these graphs aggregate three levels, so refinement also starts
        # from a partition on a weighted coarse level, where the start
        # state is evaluated at once: every local-move call must start and
        # end where the oracle's does.
        with _local_moves(oracle, "_one_level") as ref_calls:
            ref = oracle.louvain(graph, np.random.default_rng(seed))
        with _local_moves(louvain_module, "_one_level_flat") as vec_calls:
            vec = louvain(graph, np.random.default_rng(seed))
        assert vec.clustering.assignment() == ref.clustering.assignment()
        assert vec.modularity == ref.modularity
        assert vec.num_levels == ref.num_levels
        assert [call[:2] for call in vec_calls] == [call[:2] for call in ref_calls]
        weighted = sum(
            start != list(range(len(start))) and not level.unit_weights
            for start, _end, level in vec_calls
        )
        event(f"refinement calls on weighted levels: {weighted}")

    @given(
        graph=planted_graphs(max_users=150), seed=st.integers(0, 2**16), data=st.data()
    )
    @settings(max_examples=25, deadline=None)
    def test_any_start_partition_matches_the_oracle(self, graph, seed, data):
        # One local-move call from a drawn start partition, on the base
        # graph and on the weighted graph its first level induces: nodes
        # the start state would move start stale, the rest settled.
        flat, _users = louvain_module._FlatGraph.from_graph(graph)
        agg, _users = oracle._AggregateGraph.from_social_graph(graph)
        first = np.arange(flat.num_nodes)
        louvain_module._one_level_flat(flat, first, np.random.default_rng(seed))
        first, num_coms = louvain_module._renumber_flat(first)
        levels = [
            (flat, agg),
            (
                louvain_module._induced_flat(flat, first, num_coms),
                oracle._induced_graph(agg, first.tolist(), num_coms),
            ),
        ]
        for vec_graph, ref_graph in levels:
            n = vec_graph.num_nodes
            labels = data.draw(st.integers(1, n))
            start = data.draw(
                st.lists(st.integers(0, labels - 1), min_size=n, max_size=n)
            )
            vec = np.array(start, dtype=np.int64)
            ref = list(start)
            louvain_module._one_level_flat(vec_graph, vec, np.random.default_rng(seed))
            oracle._one_level(ref_graph, ref, np.random.default_rng(seed))
            assert vec.tolist() == ref


@contextlib.contextmanager
def _local_moves(module, name):
    """Record the start and end partition (and the level graph) of every
    call to the local-move function ``module.name``."""
    calls = []
    one_level = getattr(module, name)

    def spy(level, node2com, rng):
        start = np.asarray(node2com).tolist()
        one_level(level, node2com, rng)
        calls.append((start, np.asarray(node2com).tolist(), level))

    with mock.patch.object(module, name, spy):
        yield calls
