"""Fuzzed artifact bytes: a typed integrity error, or the same content.

Small kernel (``load_kernel_artifact``), release
(``PublishedRelease.load``) and BigCSR (``open_bigcsr``) artifacts are
written once, then mutated — bits flipped, the file truncated, bytes
appended — and loaded again.  Every mutated artifact must either raise
its loader's integrity error (:class:`CacheIntegrityError`,
:class:`ReleaseIntegrityError`, :class:`GraphArtifactError`) or load
content-identical to the original: a mutation in zip bookkeeping or in
trailing whitespace may change no content.  Any other exception is a
loader bug.
"""

import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.store import load_kernel_artifact, save_kernel_artifact
from repro.community.clustering import Clustering
from repro.compute import build_kernel
from repro.core.cluster_weights import NoisyClusterWeights
from repro.core.persistence import PublishedRelease
from repro.exceptions import (
    CacheIntegrityError,
    GraphArtifactError,
    ReleaseIntegrityError,
)
from repro.graph.bigcsr import open_bigcsr
from repro.graph.generators import erdos_renyi_graph
from repro.graph.streaming import erdos_renyi_bigcsr
from repro.similarity.common_neighbors import CommonNeighbors


@st.composite
def mutated(draw, original: bytes) -> bytes:
    """``original`` with bits flipped, its tail cut off, or bytes appended."""
    kind = draw(st.sampled_from(["flip", "truncate", "append"]))
    if kind == "truncate":
        return original[: draw(st.integers(0, len(original) - 1))]
    if kind == "append":
        return original + draw(st.binary(min_size=1, max_size=16))
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data) - 1))
        data[at] ^= 1 << draw(st.integers(0, 7))
    return bytes(data)


def _write(path: str, data: bytes) -> None:
    # A new file each time: truncating a written file can make some
    # filesystems flush it to disk first, at tens of ms per example.
    if os.path.exists(path):
        os.remove(path)
    with open(path, "wb") as handle:
        handle.write(data)


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("artifact-fuzz")


@pytest.fixture(scope="module")
def kernel_artifact(workdir):
    graph = erdos_renyi_graph(30, 0.15, np.random.default_rng(3))
    kernel = build_kernel(graph, CommonNeighbors())
    path = str(workdir / "kernel.npz")
    save_kernel_artifact(path, kernel, "k" * 64, CommonNeighbors())
    _, metadata = load_kernel_artifact(path)
    return kernel, metadata, _read(path)


@pytest.fixture(scope="module")
def release_artifact(workdir):
    rng = np.random.default_rng(4)
    items = [f"item-{i}" for i in range(8)] + list(range(4))
    clustering = Clustering([[0, 1, 2, "u3"], [4, 5], ["u6", 7, 8]])
    release = PublishedRelease(
        weights=NoisyClusterWeights(
            matrix=rng.normal(size=(len(items), clustering.num_clusters)),
            items=items,
            item_index={item: i for i, item in enumerate(items)},
            clustering=clustering,
            epsilon=0.5,
        ),
        measure_name="cn",
        max_weight=1.0,
    )
    path = str(workdir / "release.npz")
    release.save(path)
    return release, _read(path)


@pytest.fixture(scope="module")
def bigcsr_artifact(workdir):
    graph = erdos_renyi_bigcsr(
        30, 0.15, np.random.default_rng(5), directory=str(workdir / "graphs")
    )
    files = {
        name: _read(os.path.join(graph.path, name)) for name in os.listdir(graph.path)
    }
    return graph, files


def _shifted_central_directory(original: bytes) -> bytes:
    """``original`` with its zip central-directory offset raised by 8 MiB.

    Every member's local header then appears to start before the file
    does, so reading one seeks to a negative offset — a fault the
    fuzzer meets about once in a few hundred examples.
    """
    end = len(original) - 22  # the end-of-central-directory record
    assert original[end : end + 4] == b"PK\x05\x06"  # and no zip comment
    data = bytearray(original)
    data[end + 18] ^= 0x80  # bit 23 of the little-endian offset
    return bytes(data)


def test_kernel_with_a_bad_zip_offset_is_corrupt(workdir, kernel_artifact):
    path = str(workdir / "bad-offset-kernel.npz")
    _write(path, _shifted_central_directory(kernel_artifact[2]))
    with pytest.raises(CacheIntegrityError):
        load_kernel_artifact(path)


def test_release_with_a_bad_zip_offset_is_corrupt(workdir, release_artifact):
    path = str(workdir / "bad-offset-release.npz")
    _write(path, _shifted_central_directory(release_artifact[1]))
    with pytest.raises(ReleaseIntegrityError):
        PublishedRelease.load(path)


def test_bigcsr_with_non_utf8_metadata_is_corrupt(workdir, bigcsr_artifact):
    _, files = bigcsr_artifact
    directory = workdir / "non-utf8.bigcsr"
    directory.mkdir()
    for name, content in files.items():
        if name == "meta.json":
            content += b"\x80"
        _write(str(directory / name), content)
    with pytest.raises(GraphArtifactError, match="unparseable metadata"):
        open_bigcsr(str(directory))


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_kernel_artifact(workdir, kernel_artifact, data):
    kernel, metadata, original = kernel_artifact
    path = str(workdir / "mutated-kernel.npz")
    _write(path, data.draw(mutated(original)))
    try:
        loaded, loaded_metadata = load_kernel_artifact(path)
    except CacheIntegrityError:
        return
    assert loaded_metadata == metadata
    assert list(loaded.users) == list(kernel.users)
    assert loaded.matrix.shape == kernel.matrix.shape
    assert (loaded.matrix != kernel.matrix).nnz == 0


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_release_artifact(workdir, release_artifact, data):
    release, original = release_artifact
    path = str(workdir / "mutated-release.npz")
    _write(path, data.draw(mutated(original)))
    try:
        loaded = PublishedRelease.load(path)
    except ReleaseIntegrityError:
        return
    assert np.array_equal(loaded.weights.matrix, release.weights.matrix)
    assert loaded.weights.items == release.weights.items
    assert (
        loaded.weights.clustering.assignment()
        == release.weights.clustering.assignment()
    )
    assert loaded.epsilon == release.epsilon
    assert loaded.measure_name == release.measure_name
    assert loaded.max_weight == release.max_weight


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_bigcsr_artifact(workdir, bigcsr_artifact, data):
    graph, files = bigcsr_artifact
    name = data.draw(st.sampled_from(sorted(files)))
    directory = str(workdir / "mutated.bigcsr")
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    for each, content in files.items():
        if each == name:
            content = data.draw(mutated(content))
        _write(os.path.join(directory, each), content)
    try:
        loaded = open_bigcsr(directory)
    except GraphArtifactError:
        return
    assert loaded.num_users == graph.num_users
    assert loaded.num_edges == graph.num_edges
    assert loaded.fingerprint == graph.fingerprint
    assert loaded.meta == graph.meta
    mine, theirs = loaded.to_csr()[0], graph.to_csr()[0]
    for buffer in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(mine, buffer), getattr(theirs, buffer))
