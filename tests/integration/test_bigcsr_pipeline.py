"""End-to-end parity: the out-of-core graph path vs the in-memory path.

The acceptance contract of the BigCSR substrate is not "approximately
the same results" — it is *bit-identical* kernels, partitions, and
recommendations.  A streamed generator feeding the external-sort CSR
builder must be indistinguishable, at every downstream consumer, from
the in-memory generator feeding a ``SocialGraph``.
"""

import numpy as np
import pytest

from repro.cache.keys import graph_fingerprint, similarity_cache_key
from repro.cache.store import SimilarityStore
from repro.community.louvain import louvain
from repro.compute.adjacency import clear_adjacency_cache
from repro.compute.kernels import build_kernel
from repro.core.recommender import SocialRecommender
from repro.graph.generators import erdos_renyi_graph
from repro.graph.preference_graph import PreferenceGraph
from repro.graph.streaming import erdos_renyi_bigcsr
from repro.similarity.base import SimilarityCache, get_measure

N = 250
P = 0.04
SEED = 1234


@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bigcsr-pipeline")
    social = erdos_renyi_graph(N, P, np.random.default_rng(SEED))
    big = erdos_renyi_bigcsr(
        N,
        P,
        np.random.default_rng(SEED),
        directory=str(tmp),
        memory_budget_bytes=16 * 1024,
    )
    return social, big


@pytest.fixture(autouse=True)
def fresh_adjacency_cache():
    clear_adjacency_cache()
    yield
    clear_adjacency_cache()


def test_same_fingerprint_hence_same_cache_identity(graphs):
    social, big = graphs
    assert graph_fingerprint(big) == graph_fingerprint(social)
    measure = get_measure("cn")
    assert similarity_cache_key(big, measure) == similarity_cache_key(
        social, measure
    )


@pytest.mark.parametrize("measure_name", ["cn", "aa", "ra", "gd", "kz"])
def test_kernels_bit_identical(graphs, measure_name):
    social, big = graphs
    measure = get_measure(measure_name)
    dense = build_kernel(social, measure)
    mapped = build_kernel(big, measure)
    assert list(dense.users) == list(mapped.users)
    assert (dense.matrix != mapped.matrix).nnz == 0


def test_louvain_partitions_identical(graphs):
    social, big = graphs
    dense_result = louvain(social, rng=np.random.default_rng(7))
    mapped_result = louvain(big, rng=np.random.default_rng(7))
    assert dense_result.clustering == mapped_result.clustering
    assert dense_result.modularity == mapped_result.modularity


def test_similarity_cache_rows_identical(graphs):
    social, big = graphs
    dense_cache = SimilarityCache(get_measure("aa"), social)
    mapped_cache = SimilarityCache(get_measure("aa"), big)
    for user in (0, 42, N - 1):
        assert dense_cache.row(user) == mapped_cache.row(user)
        assert dense_cache.similarity_set(user) == mapped_cache.similarity_set(
            user
        )


def test_recommendations_identical(graphs):
    social, big = graphs
    rng = np.random.default_rng(99)
    preferences = PreferenceGraph()
    for user in range(N):
        for item in rng.choice(40, size=3, replace=False):
            preferences.add_edge(int(user), f"item-{int(item)}")

    dense_rec = SocialRecommender(get_measure("cn"), n=10).fit(
        social, preferences
    )
    mapped_rec = SocialRecommender(get_measure("cn"), n=10).fit(
        big, preferences
    )
    for user in range(0, N, 25):
        assert (
            dense_rec.recommend(user).item_ids()
            == mapped_rec.recommend(user).item_ids()
        )


def test_kernel_store_round_trips_across_representations(graphs, tmp_path):
    """A kernel cached from the in-memory graph is a *hit* for the
    mmap'd graph — one artifact, two representations."""
    social, big = graphs
    measure = get_measure("cn")
    store = SimilarityStore(directory=str(tmp_path / "kernels"))
    first = store.get_or_compute(
        social, measure, lambda: build_kernel(social, measure)
    )
    assert not first.hit
    second = store.get_or_compute(
        big, measure, lambda: build_kernel(big, measure)
    )
    assert second.hit
    assert (first.matrix.matrix != second.matrix.matrix).nnz == 0
