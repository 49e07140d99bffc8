"""Persisting and serving the framework's sanitised release.

Differential privacy's post-processing guarantee means the noisy
per-cluster averages — together with the (public) clustering — are a
*publishable artifact*: once released at privacy cost epsilon, anyone can
serve recommendations from them forever, against any snapshot of the
public social graph, without touching the private preference data again.

- :class:`PublishedRelease` — the artifact: noisy weight matrix, item
  order, cluster assignment, and provenance (epsilon, measure name,
  weight cap).  Saves to / loads from a single ``.npz`` file.
- :class:`ReleaseServer` — serves top-N recommendations from a loaded
  artifact plus the public social graph.  No preference graph needed.

Identifiers must be JSON-representable (int or str) to persist; the
synthetic datasets and the HetRec loaders use ints throughout.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.community.clustering import Clustering
from repro.core.cluster_weights import NoisyClusterWeights
from repro.core.private import PrivateSocialRecommender
from repro.core.scoring import ReleaseScorer
from repro.exceptions import DatasetError, PrivacyError, ReleaseIntegrityError
from repro.graph.social_graph import SocialGraph
from repro.resilience.degradation import TIER_PERSONALIZED
from repro.resilience.faults import fault_point
from repro.resilience.retry import RetryPolicy
from repro.similarity.base import SimilarityCache, SimilarityMeasure, get_measure
from repro.types import ItemId, RecommendationList, UserId

__all__ = ["PublishedRelease", "ReleaseServer", "ReleaseProvenance", "inspect_release"]

# Format 2 embeds a SHA-256 checksum over the matrix bytes and the
# metadata payload; format 1 (pre-integrity) files are still readable.
_FORMAT_VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)


def _payload_digest(matrix: np.ndarray, payload: bytes) -> str:
    """SHA-256 over the matrix bytes and the serialised metadata."""
    canonical = np.ascontiguousarray(matrix, dtype=np.float64)
    digest = hashlib.sha256()
    digest.update(canonical.tobytes())
    digest.update(b"\x00")
    digest.update(payload)
    return digest.hexdigest()


def _read_release_arrays(path: str) -> Tuple[np.ndarray, bytes, Optional[str]]:
    """Read the raw (matrix, metadata payload, checksum) triple.

    Raises:
        OSError: for IO-level failures (missing file, transient EIO) —
            left unwrapped so a :class:`RetryPolicy` can treat them as
            transient.
        ReleaseIntegrityError: for anything that reads but does not parse
            as a release container (truncated zip, bad entries, ...).
    """
    fault_point("release.load", path=path)
    with open(path, "rb") as handle:
        raw = handle.read()
    # Parsed from memory, so every failure past the read is corruption:
    # a corrupt zip offset must not pass for a transient IO error.
    try:
        with np.load(io.BytesIO(raw)) as archive:
            matrix = np.asarray(archive["matrix"])
            payload = bytes(archive["metadata"])
            checksum = (
                bytes(archive["checksum"]).decode("ascii")
                if "checksum" in archive.files
                else None
            )
    except Exception as exc:  # BadZipFile, zlib.error, KeyError, ValueError...
        raise ReleaseIntegrityError(
            f"release file {path!r} is corrupt or not a release archive: {exc}"
        ) from exc
    return matrix, payload, checksum


def _mmap_matrix(matrix: np.ndarray, digest: str, mmap_dir: str) -> np.ndarray:
    """Return a read-only memory map of ``matrix`` cached under ``mmap_dir``.

    The cache file is named by the release's content digest, so it can
    never be stale: a different release maps to a different file.  The
    first load materialises ``<digest>.npy`` atomically (tmp + fsync +
    ``os.replace``); later loads — and other processes serving the same
    release — share the page cache instead of each holding a private
    copy of the matrix.  A cache file that fails to parse, or whose
    shape, dtype or values differ from the checksum-verified matrix, is
    rewritten.
    """
    os.makedirs(mmap_dir, exist_ok=True)
    cache_path = os.path.join(mmap_dir, f"{digest}.npy")
    canonical = np.ascontiguousarray(matrix, dtype=np.float64)
    mapped: Optional[np.ndarray] = None
    if os.path.exists(cache_path):
        try:
            mapped = np.load(cache_path, mmap_mode="r")
        except (OSError, ValueError):
            mapped = None
        if mapped is not None and (
            mapped.shape != canonical.shape
            or mapped.dtype != canonical.dtype
            or not np.array_equal(mapped, canonical)
        ):
            mapped = None
    if mapped is None:
        tmp_path = f"{cache_path}.tmp.{os.getpid()}"
        try:
            with open(tmp_path, "wb") as handle:
                np.save(handle, canonical)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, cache_path)
        finally:
            if os.path.exists(tmp_path):
                os.remove(tmp_path)
        mapped = np.load(cache_path, mmap_mode="r")
    return mapped


def _check_json_ids(values, kind: str) -> None:
    for value in values:
        if not isinstance(value, (int, str)):
            raise DatasetError(
                f"{kind} identifier {value!r} is not persistable; "
                f"only int and str identifiers can be saved"
            )


@dataclass(frozen=True)
class PublishedRelease:
    """The sanitised, publishable output of one framework run.

    Attributes:
        weights: the noisy cluster-average matrix with its item order and
            clustering.
        measure_name: registry name of the similarity measure the release
            was intended for (serving with another public measure is
            privacy-safe but changes semantics).
        max_weight: the weight cap used by the mechanism.
    """

    weights: NoisyClusterWeights
    measure_name: str
    max_weight: float

    @classmethod
    def from_recommender(
        cls, recommender: PrivateSocialRecommender
    ) -> "PublishedRelease":
        """Extract the publishable artifact from a fitted recommender.

        Raises:
            PrivacyError: if the recommender has not been fitted (there is
                nothing released yet).
        """
        if recommender.noisy_weights_ is None:
            raise PrivacyError(
                "recommender must be fitted before extracting a release"
            )
        return cls(
            weights=recommender.noisy_weights_,
            measure_name=recommender.measure.name,
            max_weight=recommender.max_weight,
        )

    @property
    def epsilon(self) -> float:
        """The privacy cost the release satisfied."""
        return self.weights.epsilon

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _metadata(self) -> dict:
        clustering = self.weights.clustering
        return {
            "version": _FORMAT_VERSION,
            "epsilon": None if np.isinf(self.epsilon) else self.epsilon,
            "measure": self.measure_name,
            "max_weight": self.max_weight,
            "items": list(self.weights.items),
            # JSON keys must be strings; keep the original type tag so
            # integer user ids round-trip exactly.
            "assignment": [
                [user, cluster]
                for user, cluster in clustering.assignment().items()
            ],
        }

    def save(self, path: str) -> None:
        """Write the artifact to ``path`` atomically.

        The archive is written to a sibling temporary file, flushed and
        fsynced, and only then moved over ``path`` with ``os.replace`` —
        so a crash at any point leaves either the previous artifact or no
        file at all, never a torn one.  The archive embeds a SHA-256
        checksum over the matrix bytes and the metadata payload, verified
        on load.

        Raises:
            DatasetError: for identifiers that cannot be represented in
                JSON metadata.
            OSError: for IO failures while writing.
        """
        clustering = self.weights.clustering
        _check_json_ids(self.weights.items, "item")
        _check_json_ids(clustering.users(), "user")
        payload = json.dumps(self._metadata()).encode("utf-8")
        matrix = np.ascontiguousarray(self.weights.matrix, dtype=np.float64)
        checksum = _payload_digest(matrix, payload)
        tmp_path = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp_path, "wb") as handle:
                np.savez_compressed(
                    handle,
                    matrix=matrix,
                    metadata=np.frombuffer(payload, dtype=np.uint8),
                    checksum=np.frombuffer(checksum.encode("ascii"), dtype=np.uint8),
                )
                handle.flush()
                os.fsync(handle.fileno())
            fault_point("release.save.pre-replace", path=tmp_path)
            os.replace(tmp_path, path)
        finally:
            if os.path.exists(tmp_path):
                os.remove(tmp_path)
        directory = os.path.dirname(os.path.abspath(path))
        try:
            dir_fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return  # platform without directory fds; rename is still atomic
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    @classmethod
    def load(
        cls,
        path: str,
        retry: Optional[RetryPolicy] = None,
        mmap_dir: Optional[str] = None,
    ) -> "PublishedRelease":
        """Read and verify an artifact previously written by :meth:`save`.

        Args:
            path: the ``.npz`` artifact.
            retry: optional policy applied to the IO read; transient
                ``OSError`` failures are retried, integrity failures are
                permanent and never retried.
            mmap_dir: when given, the (checksum-verified) weight matrix
                is served as a read-only memory map backed by a
                content-addressed ``<digest>.npy`` cache under this
                directory, instead of a private in-RAM copy — the long
                -lived serving tier's mode, where several generations
                and processes may hold releases concurrently.

        Raises:
            ReleaseIntegrityError: for corrupt or truncated archives,
                checksum mismatches, and unsupported format versions.
            DatasetError: for unreadable files (missing, permission).
            RetryExhaustedError: when ``retry`` was given and every
                attempt failed with a transient error.
        """
        try:
            if retry is not None:
                matrix, payload, checksum = retry.call(_read_release_arrays, path)
            else:
                matrix, payload, checksum = _read_release_arrays(path)
        except OSError as exc:
            raise DatasetError(f"cannot load release from {path!r}: {exc}") from exc
        if checksum is not None:
            expected = _payload_digest(matrix, payload)
            if checksum != expected:
                raise ReleaseIntegrityError(
                    f"release file {path!r} failed its checksum "
                    f"(stored {checksum[:12]}..., computed {expected[:12]}...); "
                    f"the artifact is corrupt"
                )
        try:
            metadata = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ReleaseIntegrityError(
                f"release file {path!r} carries unparseable metadata: {exc}"
            ) from exc
        version = metadata.get("version")
        if version not in _SUPPORTED_VERSIONS:
            raise ReleaseIntegrityError(
                f"release file {path!r} has unsupported version {version!r}; "
                f"this library reads versions {_SUPPORTED_VERSIONS}"
            )
        if version >= 2 and checksum is None:
            raise ReleaseIntegrityError(
                f"release file {path!r} claims format v{version} but has no "
                f"embedded checksum; the artifact is incomplete"
            )
        try:
            items: List[ItemId] = [
                item if isinstance(item, (int, str)) else str(item)
                for item in metadata["items"]
            ]
            assignment: Dict[UserId, int] = {
                user: int(cluster) for user, cluster in metadata["assignment"]
            }
            epsilon = metadata["epsilon"]
            measure_name = metadata["measure"]
            max_weight = float(metadata["max_weight"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ReleaseIntegrityError(
                f"release file {path!r} has incomplete metadata: {exc!r}"
            ) from exc
        if mmap_dir is not None:
            digest = checksum or _payload_digest(matrix, payload)
            matrix = _mmap_matrix(matrix, digest, mmap_dir)
        clustering = Clustering.from_assignment(assignment)
        weights = NoisyClusterWeights(
            matrix=matrix,
            items=items,
            item_index={item: i for i, item in enumerate(items)},
            clustering=clustering,
            epsilon=float("inf") if epsilon is None else float(epsilon),
        )
        return cls(
            weights=weights,
            measure_name=measure_name,
            max_weight=max_weight,
        )

    def server(
        self, social: SocialGraph, measure: Optional[SimilarityMeasure] = None
    ) -> "ReleaseServer":
        """Build a :class:`ReleaseServer` over the public social graph."""
        if measure is None:
            measure = get_measure(self.measure_name)
        return ReleaseServer(self, social, measure)


class ReleaseServer:
    """Serves recommendations from a published release and public data.

    The server holds no private preference data at all: everything it
    reads is the sanitised matrix and the public social graph, so queries
    are free post-processing.
    """

    def __init__(
        self,
        release: PublishedRelease,
        social: SocialGraph,
        measure: SimilarityMeasure,
    ) -> None:
        self.release = release
        self.social = social
        self.measure = measure
        self._scorer = ReleaseScorer(release.weights, SimilarityCache(measure, social))

    def warm(self, store=None) -> None:
        """Build the cluster profile ``P = S @ C`` off the request path.

        With a :class:`~repro.cache.store.SimilarityStore` the kernel is
        one artifact read, not a build, for a freshly swapped-in release;
        ``P`` is one sparse product per generation, and a request then a
        profile-row gather plus one mat-vec.
        """
        self._scorer.warm(store)

    def utilities(self, user: UserId) -> Dict[ItemId, float]:
        """Estimated utilities of every released item for ``user``.

        Raises:
            NodeNotFoundError: for a user outside the social graph.
        """
        return self._scorer.utilities(user)

    def recommend(
        self, user: UserId, n: int = 10, max_tier: str = TIER_PERSONALIZED
    ) -> RecommendationList:
        """Top-N recommendations for ``user`` from the release.

        Never raises for an unservable user: queries from users outside
        the social graph, isolated users, and users whose similarity
        reaches no release cluster are answered from the degradation
        ladder (cluster-popularity, then global noisy popularity — see
        :mod:`repro.resilience.degradation`), with the served tier
        reported on the result's ``tier`` attribute.  Every tier is
        post-processing of the published matrix: no additional epsilon
        is ever spent.

        Args:
            user: the target user.
            n: list length.
            max_tier: best ladder rung to serve from.  The serving
                tier's admission control passes a lower rung under
                overload — skipping the similarity computation entirely
                — which trades personalization for latency at zero
                additional privacy cost.

        Raises:
            ValueError: if ``n`` < 1 or ``max_tier`` is not a ladder rung.
        """
        return self._scorer.recommend(user, n, max_tier)


@dataclass(frozen=True)
class ReleaseProvenance:
    """What ``repro check-release`` reports about an artifact on disk.

    Attributes:
        path: the artifact location.
        version: embedded format version.
        checksum: hex SHA-256 the file carries (None for v1 artifacts).
        checksum_verified: whether the recomputed digest matched.
        epsilon: the privacy cost recorded at release time.
        measure: similarity-measure registry name.
        measure_registered: whether that measure resolves in this build.
        max_weight: the mechanism's weight cap.
        num_items / num_users / num_clusters: artifact dimensions.
    """

    path: str
    version: int
    checksum: Optional[str]
    checksum_verified: bool
    epsilon: float
    measure: str
    measure_registered: bool
    max_weight: float
    num_items: int
    num_users: int
    num_clusters: int


def inspect_release(
    path: str, retry: Optional[RetryPolicy] = None
) -> ReleaseProvenance:
    """Verify an artifact end to end and report its provenance.

    Runs the full :meth:`PublishedRelease.load` pipeline — container
    parse, checksum verification, version and metadata checks — and
    additionally records whether the release's similarity measure is
    registered in this build.

    Raises:
        ReleaseIntegrityError / DatasetError: as :meth:`PublishedRelease.load`.
    """
    try:
        if retry is not None:
            _, payload, checksum = retry.call(_read_release_arrays, path)
        else:
            _, payload, checksum = _read_release_arrays(path)
    except OSError as exc:
        raise DatasetError(f"cannot load release from {path!r}: {exc}") from exc
    release = PublishedRelease.load(path, retry=retry)
    metadata = json.loads(payload.decode("utf-8"))
    try:
        get_measure(release.measure_name)
        registered = True
    except Exception:
        registered = False
    clustering = release.weights.clustering
    return ReleaseProvenance(
        path=path,
        version=int(metadata.get("version", 0)),
        checksum=checksum,
        checksum_verified=checksum is not None,
        epsilon=release.epsilon,
        measure=release.measure_name,
        measure_registered=registered,
        max_weight=release.max_weight,
        num_items=len(release.weights.items),
        num_users=clustering.num_users,
        num_clusters=clustering.num_clusters,
    )
