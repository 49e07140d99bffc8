"""Experiment harness: the drivers that regenerate every table and figure.

- :mod:`repro.experiments.evaluation` — shared machinery: build the
  non-private reference once, evaluate any recommender factory against it,
  average over repeated noise draws.
- :mod:`repro.experiments.engine` — the vectorised sweep engine: hoists
  every epsilon/repeat-invariant quantity out of the sweep loops and
  scores each noise draw as one matmul + one vectorised ranking/NDCG
  pass.  The drivers score through it and fall back per cell to the
  per-user reference path.
- :mod:`repro.experiments.tradeoff` — Figures 1 and 2 (NDCG@N vs epsilon
  for the four similarity measures).
- :mod:`repro.experiments.degree_effect` — Figure 3 (per-user NDCG@50 at
  epsilon = inf as a function of social degree).
- :mod:`repro.experiments.comparison` — Figure 4 (NOU / NOE / LRM / GS vs
  the cluster framework).
- :mod:`repro.experiments.ablation` — clustering-strategy and error-
  decomposition ablations (DESIGN.md Section 6).
"""

from repro.experiments.checkpoint import SweepCheckpoint
from repro.experiments.comparison import ComparisonCell, run_comparison
from repro.experiments.degree_effect import DegreeEffectResult, run_degree_effect
from repro.experiments.engine import SweepEngine
from repro.experiments.evaluation import (
    EvaluationContext,
    evaluate_factory,
    evaluate_recommender,
)
from repro.experiments.tradeoff import (
    TradeoffCell,
    format_tradeoff_table,
    run_tradeoff,
)

__all__ = [
    "SweepCheckpoint",
    "EvaluationContext",
    "evaluate_recommender",
    "evaluate_factory",
    "SweepEngine",
    "TradeoffCell",
    "run_tradeoff",
    "format_tradeoff_table",
    "DegreeEffectResult",
    "run_degree_effect",
    "ComparisonCell",
    "run_comparison",
]
