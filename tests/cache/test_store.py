"""Tests for the persistent similarity store: artifacts, LRU, integrity."""

import os
import zipfile

import pytest

from repro.cache.store import (
    SimilarityStore,
    load_kernel_artifact,
    save_kernel_artifact,
)
from repro.compute import build_kernel
from repro.exceptions import CacheIntegrityError
from repro.graph.social_graph import SocialGraph
from repro.obs import telemetry
from repro.resilience.faults import truncate_file
from repro.similarity.adamic_adar import AdamicAdar
from repro.similarity.common_neighbors import CommonNeighbors

EDGES = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (2, 5)]


@pytest.fixture
def graph():
    return SocialGraph(EDGES)


@pytest.fixture
def store(tmp_path):
    return SimilarityStore(str(tmp_path / "kernels"))


def counted_kernel(graph, calls):
    def compute():
        calls.append(1)
        return build_kernel(graph, CommonNeighbors())

    return compute


class TestArtifactRoundtrip:
    def test_save_load_roundtrip(self, graph, tmp_path):
        matrix = build_kernel(graph, CommonNeighbors())
        path = str(tmp_path / "kernel.npz")
        save_kernel_artifact(path, matrix, "k" * 64, CommonNeighbors())
        loaded, metadata = load_kernel_artifact(path)
        assert loaded.users == matrix.users
        assert (loaded.matrix.toarray() == matrix.matrix.toarray()).all()
        assert metadata["key"] == "k" * 64
        assert metadata["kind"] == "similarity-kernel"

    def test_no_tmp_file_left_behind(self, graph, tmp_path):
        matrix = build_kernel(graph, CommonNeighbors())
        path = str(tmp_path / "kernel.npz")
        save_kernel_artifact(path, matrix, "k" * 64, CommonNeighbors())
        assert os.listdir(tmp_path) == ["kernel.npz"]


class TestStoreLookup:
    def test_miss_then_memory_hit(self, graph, store):
        calls = []
        compute = counted_kernel(graph, calls)
        with telemetry() as registry:
            first = store.get_or_compute(graph, CommonNeighbors(), compute)
            second = store.get_or_compute(graph, CommonNeighbors(), compute)
        assert not first.hit and second.hit
        assert len(calls) == 1
        assert registry.counter("cache.miss") == 1
        assert registry.counter("cache.memory_hit") == 1
        assert os.path.exists(first.path)

    def test_disk_hit_across_store_instances(self, graph, store):
        calls = []
        store.get_or_compute(graph, CommonNeighbors(), counted_kernel(graph, calls))
        fresh = SimilarityStore(store.directory)
        with telemetry() as registry:
            lookup = fresh.get_or_compute(
                graph, CommonNeighbors(), counted_kernel(graph, calls)
            )
        assert lookup.hit
        assert registry.counter("cache.disk_hit") == 1
        assert len(calls) == 1

    def test_same_graph_rebuilt_is_a_hit(self, store):
        calls = []
        first_load = SocialGraph(EDGES)
        second_load = SocialGraph(list(reversed(EDGES)))
        store.get_or_compute(
            first_load, CommonNeighbors(), counted_kernel(first_load, calls)
        )
        lookup = store.get_or_compute(
            second_load, CommonNeighbors(), counted_kernel(second_load, calls)
        )
        assert lookup.hit and len(calls) == 1

    def test_changed_graph_misses(self, graph, store):
        calls = []
        grown = graph.copy()
        grown.add_edge(1, 5)
        with telemetry() as registry:
            store.get_or_compute(
                graph, CommonNeighbors(), counted_kernel(graph, calls)
            )
            store.get_or_compute(
                grown, CommonNeighbors(), counted_kernel(grown, calls)
            )
        assert len(calls) == 2
        assert registry.counter("cache.miss") == 2

    def test_different_measures_get_different_artifacts(self, graph, store):
        cn = store.get_or_compute(
            graph, CommonNeighbors(), lambda: build_kernel(graph, CommonNeighbors())
        )
        aa = store.get_or_compute(
            graph, AdamicAdar(), lambda: build_kernel(graph, AdamicAdar())
        )
        assert cn.path != aa.path
        assert len(store.info()) == 2

    def test_lru_eviction_is_counted(self, graph, store):
        store.max_memory_entries = 1
        with telemetry() as registry:
            store.get_or_compute(
                graph, CommonNeighbors(), lambda: build_kernel(graph, CommonNeighbors())
            )
            store.get_or_compute(
                graph, AdamicAdar(), lambda: build_kernel(graph, AdamicAdar())
            )
            assert registry.counter("cache.eviction") == 1
            # Evicted kernel still hits from disk.
            lookup = store.get_or_compute(
                graph, CommonNeighbors(), lambda: build_kernel(graph, CommonNeighbors())
            )
        assert lookup.hit and registry.counter("cache.disk_hit") == 1


class TestMaintenance:
    def test_info_reports_dimensions(self, graph, store):
        store.get_or_compute(
            graph, CommonNeighbors(), lambda: build_kernel(graph, CommonNeighbors())
        )
        (entry,) = store.info()
        assert entry.ok
        assert entry.num_users == graph.num_users
        assert entry.nnz > 0
        assert entry.size_bytes > 0

    def test_info_on_missing_directory_is_empty(self, tmp_path):
        assert SimilarityStore(str(tmp_path / "nowhere")).info() == []

    def test_prune_empties_by_default(self, graph, store):
        store.get_or_compute(
            graph, CommonNeighbors(), lambda: build_kernel(graph, CommonNeighbors())
        )
        store.get_or_compute(
            graph, AdamicAdar(), lambda: build_kernel(graph, AdamicAdar())
        )
        removed, freed = store.prune()
        assert removed == 2 and freed > 0
        assert store.info() == []

    def test_prune_respects_byte_budget(self, graph, store):
        store.get_or_compute(
            graph, CommonNeighbors(), lambda: build_kernel(graph, CommonNeighbors())
        )
        store.get_or_compute(
            graph, AdamicAdar(), lambda: build_kernel(graph, AdamicAdar())
        )
        total = sum(entry.size_bytes for entry in store.info())
        removed, _ = store.prune(max_bytes=total)
        assert removed == 0
        removed, _ = store.prune(max_bytes=total - 1)
        assert removed == 1

    def test_prune_rejects_negative_budget(self, store):
        with pytest.raises(ValueError):
            store.prune(max_bytes=-1)

    def test_invalid_lru_capacity_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SimilarityStore(str(tmp_path), max_memory_entries=-1)


class TestCorruption:
    pytestmark = pytest.mark.faults

    def test_truncated_artifact_recomputes_instead_of_crashing(self, graph, store):
        calls = []
        compute = counted_kernel(graph, calls)
        first = store.get_or_compute(graph, CommonNeighbors(), compute)
        truncate_file(first.path, os.path.getsize(first.path) // 2)
        fresh = SimilarityStore(store.directory)
        with telemetry() as registry:
            lookup = fresh.get_or_compute(graph, CommonNeighbors(), compute)
        assert not lookup.hit
        assert registry.counter("cache.corrupt_recomputed") == 1
        assert len(calls) == 2
        # The rewritten artifact is healthy again.
        healed = SimilarityStore(store.directory)
        assert healed.get_or_compute(graph, CommonNeighbors(), compute).hit
        assert len(calls) == 2

    def test_flipped_data_byte_fails_checksum_and_recomputes(self, graph, store):
        calls = []
        compute = counted_kernel(graph, calls)
        first = store.get_or_compute(graph, CommonNeighbors(), compute)
        with zipfile.ZipFile(first.path) as archive:
            info = archive.getinfo("data.npy")
        # Flip a byte well inside the stored data payload, past the zip
        # local header and the npy header.
        offset = info.header_offset + 30 + len("data.npy") + 200
        with open(first.path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([byte ^ 0xFF]))
        with pytest.raises(CacheIntegrityError):
            load_kernel_artifact(first.path)
        fresh = SimilarityStore(store.directory)
        with telemetry() as registry:
            lookup = fresh.get_or_compute(graph, CommonNeighbors(), compute)
        assert not lookup.hit and registry.counter("cache.corrupt_recomputed") == 1
        assert len(calls) == 2

    def test_garbage_file_is_reported_not_raised_by_info(self, graph, store):
        store.get_or_compute(
            graph, CommonNeighbors(), lambda: build_kernel(graph, CommonNeighbors())
        )
        garbage = os.path.join(store.directory, "f" * 64 + ".npz")
        with open(garbage, "wb") as handle:
            handle.write(b"not a zip at all")
        entries = store.info()
        assert len(entries) == 2
        assert sorted(entry.ok for entry in entries) == [False, True]
        # prune removes corrupt artifacts first, even within budget.
        removed, _ = store.prune(max_bytes=10**9)
        assert removed == 1
        assert all(entry.ok for entry in store.info())
