"""The serialized definition of a distributed sweep.

A :class:`SweepSpec` is everything a worker process needs to recompute
any cell of a ``run_tradeoff`` sweep bit-exactly: the dataset (by
recipe, not by pickle), the measure/epsilon/N grid, and the seeds.  It
round-trips through JSON so it can live in the queue directory's
``spec.json`` and be read by workers on other machines.

Datasets travel as *descriptors* rather than serialized graphs:

- ``{"kind": "synthetic", "preset": "lastfm", "scale": 0.05, "seed": 7}``
  regenerates the synthetic dataset (generation is seeded, so every
  worker builds the identical graph);
- ``{"kind": "directory", "path": "/data/lastfm"}`` loads a real crawl
  from a shared path;
- ``{"kind": "external", "name": "..."}`` marks a dataset the submitter
  constructed in memory — workers must be handed the same object
  explicitly (used by in-process tests and the orchestrator fallback).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.datasets.dataset import SocialRecDataset
from repro.exceptions import SweepQueueError
from repro.experiments.checkpoint import decode_epsilon, encode_epsilon

__all__ = ["SweepSpec", "dataset_descriptor"]

_SPEC_VERSION = 1


def dataset_descriptor(
    dataset: Optional[SocialRecDataset] = None,
    preset: Optional[str] = None,
    scale: float = 1.0,
    seed: int = 0,
    data_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Build the JSON dataset descriptor for a :class:`SweepSpec`.

    Exactly one source must be given: a synthetic ``preset``
    (``"lastfm"`` / ``"flixster"``), a crawl ``data_dir``, or an
    in-memory ``dataset`` (recorded as external — workers then need the
    object passed to them directly).

    Raises:
        SweepQueueError: when no source (or several) is given.
    """
    sources = [s for s in (preset, data_dir, dataset) if s is not None]
    if len(sources) != 1:
        raise SweepQueueError(
            "exactly one of preset / data_dir / dataset must be given"
        )
    if preset is not None:
        if preset not in ("lastfm", "flixster"):
            raise SweepQueueError(
                f"unknown synthetic preset {preset!r} (want lastfm|flixster)"
            )
        return {
            "kind": "synthetic",
            "preset": preset,
            "scale": float(scale),
            "seed": int(seed),
        }
    if data_dir is not None:
        return {"kind": "directory", "path": data_dir}
    assert dataset is not None
    return {"kind": "external", "name": dataset.name}


@dataclass(frozen=True)
class SweepSpec:
    """One distributed ``run_tradeoff`` sweep, as data.

    ``epsilons`` are stored *encoded*
    (:func:`~repro.experiments.checkpoint.encode_epsilon`) so ``inf``
    survives JSON; use :meth:`epsilon_values` for the floats.
    """

    dataset: Dict[str, object]
    measures: List[str]
    epsilons: List[str]
    ns: List[int]
    repeats: int = 10
    sample_size: Optional[int] = None
    louvain_runs: int = 10
    seed: int = 0
    max_attempts: int = 3
    version: int = field(default=_SPEC_VERSION)

    @classmethod
    def build(
        cls,
        dataset: Dict[str, object],
        measures: Sequence[str],
        epsilons: Sequence[float],
        ns: Sequence[int],
        **kwargs,
    ) -> "SweepSpec":
        """Construct from *float* epsilons (encoding them for JSON)."""
        return cls(
            dataset=dict(dataset),
            measures=[str(m) for m in measures],
            epsilons=[encode_epsilon(float(e)) for e in epsilons],
            ns=[int(n) for n in ns],
            **kwargs,
        )

    def __post_init__(self) -> None:
        if not self.measures:
            raise SweepQueueError("sweep spec needs at least one measure")
        if not self.epsilons or not self.ns:
            raise SweepQueueError("sweep spec needs epsilons and ns")
        if self.max_attempts < 1:
            raise SweepQueueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.louvain_runs < 1:
            raise SweepQueueError(f"louvain_runs must be >= 1, got {self.louvain_runs}")
        if self.repeats < 1:
            raise SweepQueueError(f"repeats must be >= 1, got {self.repeats}")
        if min(self.ns) < 1:
            raise SweepQueueError(f"every n in ns must be >= 1, got {self.ns}")
        if self.sample_size is not None and self.sample_size < 1:
            raise SweepQueueError(f"sample_size must be >= 1, got {self.sample_size}")

    def epsilon_values(self) -> List[float]:
        return [decode_epsilon(label) for label in self.epsilons]

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "dataset": self.dataset,
            "measures": list(self.measures),
            "epsilons": list(self.epsilons),
            "ns": list(self.ns),
            "repeats": self.repeats,
            "sample_size": self.sample_size,
            "louvain_runs": self.louvain_runs,
            "seed": self.seed,
            "max_attempts": self.max_attempts,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SweepSpec":
        try:
            version = int(payload.get("version", _SPEC_VERSION))  # type: ignore[arg-type]
            if version > _SPEC_VERSION:
                raise SweepQueueError(
                    f"sweep spec version {version} is newer than this "
                    f"library supports ({_SPEC_VERSION})"
                )
            return cls(
                dataset=dict(payload["dataset"]),  # type: ignore[arg-type]
                measures=[str(m) for m in payload["measures"]],  # type: ignore[union-attr]
                epsilons=[str(e) for e in payload["epsilons"]],  # type: ignore[union-attr]
                ns=[int(n) for n in payload["ns"]],  # type: ignore[union-attr]
                repeats=int(payload.get("repeats", 10)),  # type: ignore[arg-type]
                sample_size=(
                    None
                    if payload.get("sample_size") is None
                    else int(payload["sample_size"])  # type: ignore[arg-type]
                ),
                louvain_runs=int(payload.get("louvain_runs", 10)),  # type: ignore[arg-type]
                seed=int(payload.get("seed", 0)),  # type: ignore[arg-type]
                max_attempts=int(payload.get("max_attempts", 3)),  # type: ignore[arg-type]
                version=version,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SweepQueueError(f"malformed sweep spec: {exc!r}") from exc

    # ------------------------------------------------------------------
    # dataset resolution
    # ------------------------------------------------------------------
    def resolve_dataset(
        self, dataset: Optional[SocialRecDataset] = None
    ) -> SocialRecDataset:
        """Materialise the sweep's dataset in this process.

        Synthetic descriptors regenerate (seeded, hence identical across
        workers); directory descriptors load from the shared path; an
        external descriptor requires the caller to pass the dataset in.

        Raises:
            SweepQueueError: for an external descriptor with no dataset
                passed, a name mismatch, or an unknown descriptor kind.
        """
        kind = self.dataset.get("kind")
        if kind == "external":
            if dataset is None:
                raise SweepQueueError(
                    f"sweep uses in-memory dataset "
                    f"{self.dataset.get('name')!r}; pass it to the worker "
                    f"explicitly"
                )
            if dataset.name != self.dataset.get("name"):
                raise SweepQueueError(
                    f"dataset mismatch: queue expects "
                    f"{self.dataset.get('name')!r}, got {dataset.name!r}"
                )
            return dataset
        if dataset is not None:
            # An explicitly-passed dataset always wins (lets tests and the
            # orchestrator skip regeneration), but only if it matches.
            return dataset
        if kind == "synthetic":
            from repro.datasets.synthetic import SyntheticDatasetSpec

            preset = self.dataset.get("preset")
            scale = float(self.dataset.get("scale", 1.0))  # type: ignore[arg-type]
            gen_seed = int(self.dataset.get("seed", 0))  # type: ignore[arg-type]
            if preset == "lastfm":
                spec = SyntheticDatasetSpec.lastfm_like(scale=scale)
            elif preset == "flixster":
                spec = SyntheticDatasetSpec.flixster_like(scale=scale)
            else:
                raise SweepQueueError(f"unknown synthetic preset {preset!r}")
            return spec.generate(seed=gen_seed)
        if kind == "directory":
            from repro.datasets.loader import load_dataset_directory

            return load_dataset_directory(str(self.dataset.get("path")))
        raise SweepQueueError(f"unknown dataset descriptor kind {kind!r}")

    # ------------------------------------------------------------------
    # derived facts
    # ------------------------------------------------------------------
    def cell_count(self) -> int:
        """Leaseable tasks in this sweep (one per measure x epsilon)."""
        return len(self.measures) * len(self.epsilons)

    def expected_checkpoint_cells(self) -> int:
        """Checkpoint records a finished sweep holds (x ns too)."""
        return self.cell_count() * len(self.ns)

    def describe(self) -> str:
        eps = ", ".join(self.epsilons)
        return (
            f"{len(self.measures)} measure(s) x [{eps}] x ns={self.ns}, "
            f"repeats={self.repeats}, seed={self.seed}"
        )
