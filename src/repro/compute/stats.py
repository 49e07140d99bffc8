"""Perf counters for the vectorised compute layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["ComputeStats"]


@dataclass
class ComputeStats:
    """Counters for one kernel construction.

    Attributes:
        measure: registry name of the measure built; empty until a build
            completed, so it tells whether one ran.
        rows: kernel rows produced.
        nnz: stored non-zero entries in the result.
        blocks: row blocks the construction was split into.
        memory_budget_bytes: the caller's peak-memory target for block
            construction (0 = unbudgeted).
        spill_blocks: finished row blocks spilled to ``.npy`` scratch
            files instead of held in memory.
        spill_bytes: total bytes written to spill files.
        stage_seconds: wall time per construction stage
            (``adjacency``, ``blocks``, ``assemble``).
        total_seconds: end-to-end construction wall time.
        rows_per_second: ``rows / total_seconds``.
    """

    measure: str = ""
    rows: int = 0
    nnz: int = 0
    blocks: int = 0
    memory_budget_bytes: int = 0
    spill_blocks: int = 0
    spill_bytes: int = 0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    total_seconds: float = 0.0
    rows_per_second: float = 0.0

    def add_stage(self, stage: str, seconds: float) -> None:
        """Accumulate wall time for one named construction stage."""
        self.stage_seconds[stage] = self.stage_seconds.get(stage, 0.0) + seconds

    def finish(self, measure: str, rows: int, nnz: int, total_seconds: float) -> None:
        """Record a completed build and derive the throughput counters."""
        self.measure = measure
        self.rows = rows
        self.nnz = nnz
        self.total_seconds = total_seconds
        self.rows_per_second = rows / total_seconds if total_seconds > 0 else 0.0
