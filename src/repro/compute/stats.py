"""Backend names and perf counters for the vectorised compute layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["BACKENDS", "ComputeStats", "validate_backend"]

#: Valid backend selectors, everywhere a backend choice is threaded:
#: ``auto`` picks the vectorised path when the measure supports it and
#: degrades to python on failure; the other two force one path.
BACKENDS: Tuple[str, ...] = ("auto", "vectorized", "python")


def validate_backend(backend: str) -> str:
    """Return ``backend`` unchanged, or raise ``ValueError`` if unknown."""
    if backend not in BACKENDS:
        known = ", ".join(BACKENDS)
        raise ValueError(f"unknown compute backend {backend!r}; choose from {known}")
    return backend


@dataclass
class ComputeStats:
    """Counters for one kernel (or clustering) construction.

    Attributes:
        requested: the backend the caller asked for.
        backend: the backend that actually produced the result
            (``"python"`` after an auto-fallback; empty until a build ran).
        measure: registry name of the measure built, when applicable.
        rows: kernel rows produced.
        nnz: stored non-zero entries in the result.
        blocks: row blocks the construction was split into.
        fallbacks: vectorised attempts that degraded to the python path.
        memory_budget_bytes: the caller's peak-memory target for block
            construction (0 = unbudgeted).
        spill_blocks: finished row blocks spilled to ``.npy`` scratch
            files instead of held in memory.
        spill_bytes: total bytes written to spill files.
        stage_seconds: wall time per construction stage
            (``adjacency``, ``blocks``, ``assemble``, ``rows``).
        total_seconds: end-to-end construction wall time.
        rows_per_second: ``rows / total_seconds``.
    """

    requested: str = "auto"
    backend: str = ""
    measure: str = ""
    rows: int = 0
    nnz: int = 0
    blocks: int = 0
    fallbacks: int = 0
    memory_budget_bytes: int = 0
    spill_blocks: int = 0
    spill_bytes: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    total_seconds: float = 0.0
    rows_per_second: float = 0.0

    def add_stage(self, stage: str, seconds: float) -> None:
        """Accumulate wall time for one named construction stage."""
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def finish(self, rows: int, nnz: int, total_seconds: float) -> None:
        """Record the final size and derive the throughput counters."""
        self.rows = rows
        self.nnz = nnz
        self.total_seconds = total_seconds
        self.rows_per_second = rows / total_seconds if total_seconds > 0 else 0.0
