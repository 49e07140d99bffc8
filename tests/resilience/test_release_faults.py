"""Fault-injection tests for the release lifecycle and serving paths.

The scenarios the resilience layer exists for: a crash between
tmp-write and rename, a torn or bit-flipped artifact on disk, a
transient IO error healed by retry, and a vectorised serving kernel
dying mid-batch.
"""

import json
import os

import numpy as np
import pytest

from repro.core.batch import batch_recommend_all
from repro.core.persistence import PublishedRelease, inspect_release
from repro.core.private import PrivateSocialRecommender
from repro.exceptions import (
    DatasetError,
    ReleaseIntegrityError,
    RetryExhaustedError,
)
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    bit_flip_file,
    truncate_file,
)
from repro.similarity.common_neighbors import CommonNeighbors

pytestmark = pytest.mark.faults


def fit_recommender(dataset, seed):
    rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=0.5, n=10, seed=seed)
    rec.fit(dataset.social, dataset.preferences)
    return rec


@pytest.fixture(scope="module")
def fitted(lastfm_small):
    return fit_recommender(lastfm_small, seed=3)


@pytest.fixture(scope="module")
def release(fitted):
    return PublishedRelease.from_recommender(fitted)


def quick_retry(attempts=3):
    """A retry policy that never actually sleeps."""
    return RetryPolicy(
        max_attempts=attempts, base_delay=0.0, jitter=0.0, sleep=lambda _: None
    )


class TestAtomicSave:
    def test_crash_before_replace_preserves_previous_artifact(
        self, release, lastfm_small, tmp_path
    ):
        """A kill between tmp-write and rename must leave the previous
        release exactly as it was, with no partial file visible."""
        path = str(tmp_path / "release.npz")
        release.save(path)
        previous = PublishedRelease.load(path)

        newer = PublishedRelease.from_recommender(
            fit_recommender(lastfm_small, seed=4)
        )
        plan = FaultPlan([FaultSpec(site="release.save.pre-replace")])
        with plan.installed():
            with pytest.raises(OSError):
                newer.save(path)

        assert os.listdir(tmp_path) == ["release.npz"]  # no tmp debris
        survivor = PublishedRelease.load(path)
        assert np.array_equal(survivor.weights.matrix, previous.weights.matrix)

    def test_crash_on_first_save_leaves_no_file(self, release, tmp_path):
        path = str(tmp_path / "fresh.npz")
        plan = FaultPlan([FaultSpec(site="release.save.pre-replace")])
        with plan.installed():
            with pytest.raises(OSError):
                release.save(path)
        assert os.listdir(tmp_path) == []

    def test_successful_save_leaves_no_tmp_file(self, release, tmp_path):
        path = str(tmp_path / "release.npz")
        release.save(path)
        assert os.listdir(tmp_path) == ["release.npz"]


class TestIntegrity:
    def test_truncated_artifact_rejected(self, release, tmp_path):
        path = str(tmp_path / "release.npz")
        release.save(path)
        truncate_file(path, os.path.getsize(path) // 2)
        with pytest.raises(ReleaseIntegrityError):
            PublishedRelease.load(path)

    def test_nearly_empty_artifact_rejected(self, release, tmp_path):
        path = str(tmp_path / "release.npz")
        release.save(path)
        truncate_file(path, 10)
        with pytest.raises(ReleaseIntegrityError):
            PublishedRelease.load(path)

    def test_bit_flipped_artifact_rejected(self, release, tmp_path):
        path = str(tmp_path / "release.npz")
        release.save(path)
        assert bit_flip_file(path, seed=11) >= 0
        with pytest.raises(ReleaseIntegrityError):
            PublishedRelease.load(path)

    def test_torn_write_that_still_renamed_rejected(self, release, tmp_path):
        """Even if a torn tmp file somehow reaches its final name (lying
        fsync), the load-side checks refuse to serve it."""
        path = str(tmp_path / "release.npz")
        plan = FaultPlan(
            [FaultSpec(site="release.save.pre-replace", kind="truncate", keep=128)]
        )
        with plan.installed():
            release.save(path)
        with pytest.raises(ReleaseIntegrityError):
            PublishedRelease.load(path)

    def test_integrity_error_is_a_dataset_error(self, release, tmp_path):
        """Callers that predate the integrity layer catch DatasetError."""
        path = str(tmp_path / "release.npz")
        release.save(path)
        truncate_file(path, 10)
        with pytest.raises(DatasetError):
            PublishedRelease.load(path)


class TestLoadRetry:
    def test_transient_fault_retried_then_succeeds(self, release, tmp_path):
        path = str(tmp_path / "release.npz")
        release.save(path)
        plan = FaultPlan([FaultSpec(site="release.load", on_call=1)])
        with plan.installed():
            loaded = PublishedRelease.load(path, retry=quick_retry())
        assert plan.calls_to("release.load") == 2
        assert np.array_equal(loaded.weights.matrix, release.weights.matrix)

    def test_transient_fault_without_retry_fails(self, release, tmp_path):
        path = str(tmp_path / "release.npz")
        release.save(path)
        plan = FaultPlan([FaultSpec(site="release.load", on_call=1)])
        with plan.installed():
            with pytest.raises(DatasetError):
                PublishedRelease.load(path)

    def test_persistent_fault_exhausts_retries(self, release, tmp_path):
        path = str(tmp_path / "release.npz")
        release.save(path)
        plan = FaultPlan([FaultSpec(site="release.load", repeat=True)])
        with plan.installed():
            with pytest.raises(RetryExhaustedError):
                PublishedRelease.load(path, retry=quick_retry(attempts=3))
        assert plan.calls_to("release.load") == 3

    def test_integrity_failure_is_never_retried(self, release, tmp_path):
        """Corruption is permanent: retrying a checksum mismatch wastes
        attempts, so the load must fail on the first try."""
        path = str(tmp_path / "release.npz")
        release.save(path)
        truncate_file(path, os.path.getsize(path) // 2)
        plan = FaultPlan()  # counts release.load hits without faulting
        with plan.installed():
            with pytest.raises(ReleaseIntegrityError):
                PublishedRelease.load(path, retry=quick_retry(attempts=5))
        assert plan.calls_to("release.load") == 1


def write_legacy_artifact(release, path, version):
    """Hand-craft an artifact with the given version and no checksum."""
    metadata = dict(release._metadata())
    metadata["version"] = version
    payload = json.dumps(metadata).encode("utf-8")
    matrix = np.ascontiguousarray(release.weights.matrix, dtype=np.float64)
    np.savez_compressed(
        path,
        matrix=matrix,
        metadata=np.frombuffer(payload, dtype=np.uint8),
    )


class TestProvenance:
    def test_inspect_good_artifact(self, release, tmp_path):
        path = str(tmp_path / "release.npz")
        release.save(path)
        provenance = inspect_release(path)
        assert provenance.version == 2
        assert provenance.checksum_verified
        assert provenance.checksum is not None
        assert provenance.measure == "cn"
        assert provenance.measure_registered
        assert provenance.epsilon == 0.5
        assert provenance.num_items == len(release.weights.items)
        assert provenance.num_clusters == release.weights.clustering.num_clusters

    def test_legacy_v1_artifact_still_loads(self, release, tmp_path):
        path = str(tmp_path / "legacy.npz")
        write_legacy_artifact(release, path, version=1)
        loaded = PublishedRelease.load(path)
        assert np.array_equal(loaded.weights.matrix, release.weights.matrix)
        provenance = inspect_release(path)
        assert provenance.version == 1
        assert provenance.checksum is None
        assert not provenance.checksum_verified

    def test_v2_artifact_without_checksum_rejected(self, release, tmp_path):
        path = str(tmp_path / "stripped.npz")
        write_legacy_artifact(release, path, version=2)
        with pytest.raises(ReleaseIntegrityError, match="checksum"):
            PublishedRelease.load(path)


class TestServingFaults:
    """A batch has one scoring path: its failures reach the caller."""

    def test_batch_kernel_failure_propagates(self, lastfm_small):
        rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=0.5, seed=3)
        rec.fit(lastfm_small.social, lastfm_small.preferences)
        plan = FaultPlan([FaultSpec(site="compute.kernel.block", on_call=1)])
        with plan.installed():
            with pytest.raises(OSError, match="compute.kernel.block"):
                batch_recommend_all(rec, n=5)
        assert plan.fired == ["compute.kernel.block#1:raise"]

    def test_batch_chunk_failure_propagates(self, fitted, lastfm_small, monkeypatch):
        class Boom(RuntimeError):
            pass

        def top_n_rows(*_args, **_kwargs):
            raise Boom("chunk scoring failed")

        monkeypatch.setattr("repro.core.batch.top_n_rows", top_n_rows)
        users = lastfm_small.social.users()[:24]
        with pytest.raises(Boom):
            batch_recommend_all(fitted, users=users, n=5, chunk_size=8)

    def test_clustering_failure_surfaces_at_fit_time(self, lastfm_small):
        rec = PrivateSocialRecommender(CommonNeighbors(), epsilon=0.5, seed=3)
        plan = FaultPlan([FaultSpec(site="clustering.strategy")])
        with plan.installed():
            with pytest.raises(OSError):
                rec.fit(lastfm_small.social, lastfm_small.preferences)
