"""Katz similarity: damped count of bounded-length paths.

``sim(u, v) = sum_{l=1..k} alpha^l * |paths_uv^l|``

where ``paths_uv^l`` are the simple paths of length ``l`` between u and v
and ``alpha`` is a small damping factor.  The paper caps ``k`` at 3 and
uses ``alpha = 0.05`` in its experiments; longer paths contribute
exponentially less and cost exponentially more to count.
"""

from __future__ import annotations

from typing import Dict

from repro.graph.paths import count_paths_up_to
from repro.graph.social_graph import SocialGraph
from repro.similarity.base import SimilarityMeasure, register_measure
from repro.types import UserId

__all__ = ["Katz"]


class Katz(SimilarityMeasure):
    """Damped bounded-path-count similarity.

    Args:
        max_length: the path-length cutoff ``k``, 1 to 3 (paper uses 3;
            longer simple paths have no sparse closed form to build a
            kernel from).
        alpha: the damping factor (paper uses 0.05; 0.005 is also common).

    Raises:
        ValueError: for ``max_length`` outside 1..3 or ``alpha`` outside
            (0, 1).
    """

    name = "kz"

    def __init__(self, max_length: int = 3, alpha: float = 0.05) -> None:
        if not 1 <= max_length <= 3:
            raise ValueError(f"max_length must be in 1..3, got {max_length}")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        self.max_length = max_length
        self.alpha = alpha

    def similarity_row(self, graph: SocialGraph, user: UserId) -> Dict[UserId, float]:
        damping = [self.alpha**length for length in range(1, self.max_length + 1)]
        row: Dict[UserId, float] = {}
        for target, counts in count_paths_up_to(graph, user, self.max_length).items():
            score = sum(d * c for d, c in zip(damping, counts))
            if score > 0.0:
                row[target] = score
        return row

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(max_length={self.max_length}, "
            f"alpha={self.alpha})"
        )


register_measure(Katz.name, Katz)
