"""Memory-mapped release loading: the serving tier's content-addressed cache."""

import os

import numpy as np
import pytest

from repro.core.persistence import PublishedRelease
from repro.core.private import PrivateSocialRecommender
from repro.similarity.common_neighbors import CommonNeighbors


@pytest.fixture
def release_path(lastfm_small, tmp_path):
    rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=0.5, n=10, seed=3)
    rec.fit(lastfm_small.social, lastfm_small.preferences)
    path = str(tmp_path / "release.npz")
    PublishedRelease.from_recommender(rec).save(path)
    return path


def _cache_files(mmap_dir):
    if not os.path.isdir(mmap_dir):
        return []
    return sorted(
        name for name in os.listdir(mmap_dir) if name.endswith(".npy")
    )


class TestMmapLoad:
    def test_mapped_matrix_equals_in_ram_matrix(self, release_path, tmp_path):
        mmap_dir = str(tmp_path / "mmap")
        plain = PublishedRelease.load(release_path)
        mapped = PublishedRelease.load(release_path, mmap_dir=mmap_dir)
        assert isinstance(mapped.weights.matrix, np.memmap)
        assert not mapped.weights.matrix.flags.writeable
        assert np.array_equal(mapped.weights.matrix, plain.weights.matrix)
        assert mapped.weights.items == plain.weights.items
        assert mapped.epsilon == plain.epsilon

    def test_cache_file_is_content_addressed_and_reused(
        self, release_path, tmp_path
    ):
        mmap_dir = str(tmp_path / "mmap")
        PublishedRelease.load(release_path, mmap_dir=mmap_dir)
        files = _cache_files(mmap_dir)
        assert len(files) == 1
        cache_path = os.path.join(mmap_dir, files[0])
        stat_before = os.stat(cache_path)
        # A second load maps the existing file instead of rewriting it.
        PublishedRelease.load(release_path, mmap_dir=mmap_dir)
        assert _cache_files(mmap_dir) == files
        stat_after = os.stat(cache_path)
        assert stat_after.st_mtime_ns == stat_before.st_mtime_ns
        assert stat_after.st_ino == stat_before.st_ino

    def test_mismatched_cache_file_is_rewritten(self, release_path, tmp_path):
        mmap_dir = str(tmp_path / "mmap")
        expected = np.array(PublishedRelease.load(release_path).weights.matrix)
        PublishedRelease.load(release_path, mmap_dir=mmap_dir)
        files = _cache_files(mmap_dir)
        cache_path = os.path.join(mmap_dir, files[0])
        # Poison the sidecar with a wrong-shaped array.
        np.save(cache_path, np.zeros((2, 2)))
        again = PublishedRelease.load(release_path, mmap_dir=mmap_dir)
        assert np.array_equal(again.weights.matrix, expected)
        # The rewrite repaired the cache in place.
        repaired = np.load(cache_path, mmap_mode="r")
        assert repaired.shape == expected.shape

    def test_corrupted_cache_file_is_rewritten(self, release_path, tmp_path):
        # Right shape and dtype, wrong bytes: the sidecar is compared with
        # the checksum-verified matrix, not trusted for parsing.
        mmap_dir = str(tmp_path / "mmap")
        PublishedRelease.load(release_path, mmap_dir=mmap_dir)
        cache_path = os.path.join(mmap_dir, _cache_files(mmap_dir)[0])
        with open(cache_path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)  # the last float's high byte
            byte = handle.read(1)[0]
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([byte ^ 0x01]))
        again = PublishedRelease.load(release_path, mmap_dir=mmap_dir)
        # An earlier mmap load maps the same (now corrupt) file, so the
        # reference is a load that never touches the sidecar.
        expected = PublishedRelease.load(release_path).weights.matrix
        assert np.array_equal(again.weights.matrix, expected)
        assert np.array_equal(np.load(cache_path), expected)

    def test_unparsable_cache_file_is_rewritten(self, release_path, tmp_path):
        mmap_dir = str(tmp_path / "mmap")
        expected = np.array(PublishedRelease.load(release_path).weights.matrix)
        PublishedRelease.load(release_path, mmap_dir=mmap_dir)
        cache_path = os.path.join(mmap_dir, _cache_files(mmap_dir)[0])
        with open(cache_path, "wb") as handle:
            handle.write(b"garbage, not an npy header")
        again = PublishedRelease.load(release_path, mmap_dir=mmap_dir)
        assert np.array_equal(again.weights.matrix, expected)

    def test_distinct_releases_get_distinct_cache_files(
        self, lastfm_small, release_path, tmp_path
    ):
        mmap_dir = str(tmp_path / "mmap")
        PublishedRelease.load(release_path, mmap_dir=mmap_dir)
        rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=0.9, seed=8)
        rec.fit(lastfm_small.social, lastfm_small.preferences)
        other_path = str(tmp_path / "other.npz")
        PublishedRelease.from_recommender(rec).save(other_path)
        PublishedRelease.load(other_path, mmap_dir=mmap_dir)
        assert len(_cache_files(mmap_dir)) == 2

    def test_mapped_release_serves(self, lastfm_small, release_path, tmp_path):
        mmap_dir = str(tmp_path / "mmap")
        release = PublishedRelease.load(release_path, mmap_dir=mmap_dir)
        server = release.server(lastfm_small.social)
        user = lastfm_small.social.users()[0]
        result = server.recommend(user, 5)
        assert result.tier
        assert len(result.items) <= 5
