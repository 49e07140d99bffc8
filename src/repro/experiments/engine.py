"""The vectorised sweep engine behind the Figure 1–4 experiment drivers.

The reference sweep (``evaluate_factory``) refits a recommender per
(epsilon, N, repeat) cell: every repeat re-runs clustering bookkeeping,
re-averages the preference edges, recomputes every user's similarity row
in Python, and rescores rankings one user at a time.  Almost all of that
work is invariant across the sweep.  This engine hoists each invariant to
the outermost loop that still needs it:

- per dataset: the exact cluster-item averages ``A``
  (:func:`~repro.core.cluster_weights.cluster_item_averages`), the
  covering clustering, the cluster indicator ``C``, and the cluster-size
  vector of the degradation ladder;
- per (dataset, measure parameters): the similarity kernel ``S`` (the
  context's reference-pass kernel, else
  :func:`~repro.cache.store.load_or_build_kernel`),
  the evaluation users' cluster profile ``P = S @ C``, the dense
  ideal-utility matrix, and the cumulative reference DCG at every cutoff;
- per (epsilon, repeat): *only* one Laplace tensor, one matmul
  ``E = P @ (A + L)^T``, one vectorised ranking at the largest N whose
  prefixes serve every smaller N
  (:func:`~repro.core.scoring.rank_cutoffs`; a row where a tie straddles
  a smaller N's cut is re-ranked at that N), and one cumulative-DCG pass
  read at every N.

Equivalence with the per-user reference path is structural, not
approximate: every repeat draws (and charges to the privacy ledger) its
noise through the recommender's own
:func:`~repro.core.cluster_weights.apply_laplace_noise`, from a fresh
``default_rng(SeedSequence(seed))``; ``C``, ``P``, ``E``, the ranking
and the zero-signal ladder are the scoring core's
(:mod:`repro.core.scoring`); and the NDCG accumulation follows the
scalar summation order.  The test suite pins rankings and scores
against per-cell ``evaluate_factory``, which lives on as the oracle in
``tests/oracles/sweep.py``.

Cells are scored one after another in-process, on this one path: an
exception inside a cell reaches the caller with its own type.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.cache.keys import measure_fingerprint
from repro.cache.store import SimilarityStore
from repro.community.clustering import Clustering
from repro.core.cluster_weights import (
    ClusterItemAverages,
    apply_laplace_noise,
    cluster_item_averages,
)
from repro.core.private import covering_clustering
from repro.core.scoring import (
    cluster_indicator,
    estimate_rows,
    ladder_estimates,
    profile_rows,
    rank_cutoffs,
)
from repro.datasets.dataset import SocialRecDataset
from repro.exceptions import ExperimentError
from repro.experiments.evaluation import EvaluationContext
from repro.metrics.ndcg import dcg_array
from repro.obs.registry import incr
from repro.obs.spans import span
from repro.privacy.mechanisms import validate_epsilon
from repro.similarity.base import SimilarityCache
from repro.similarity.matrix import SimilarityMatrix
from repro.types import ItemId, UserId

__all__ = ["SweepEngine"]

# One cell of work: (epsilon, cutoffs, repeats).
CellSpec = Tuple[float, Sequence[int], int]


@dataclass
class _EvalArrays:
    """Dense per-context arrays shared across every epsilon and repeat."""

    context: EvaluationContext
    positions: np.ndarray  # kernel row of each evaluation user
    utilities: np.ndarray  # (users x items) ideal utilities
    reference_cum: np.ndarray  # (users x max_n) cumulative reference DCG


@dataclass
class _ClusterArrays:
    """Per-clustering arrays shared across measures, epsilons, repeats."""

    clustering: Clustering  # as passed by the caller (keeps id() stable)
    covering: Clustering  # extended to cover preference-only users
    users: List[UserId]  # kernel row order the indicator was built over
    averages: ClusterItemAverages
    indicator: sp.csr_matrix  # (kernel users x clusters)
    sizes: np.ndarray  # cluster sizes, for the degradation ladder


def _rank_repeat(
    profile: np.ndarray,
    noised: np.ndarray,
    sizes: np.ndarray,
    columns: np.ndarray,
    ns: Sequence[int],
    chunk_size: int,
) -> Tuple[Dict[int, np.ndarray], np.ndarray]:
    """Rankings for one noise draw at every cutoff, each row ranked once.

    Returns ``(ranked, empty)``: per cutoff ``n`` the ``(users x limit)``
    matrix of ranked item positions, and the mask of the zero-signal rows
    the degradation ladder serves its empty tier (an empty ranking).  A
    zero-signal row ranks its ladder estimates in place of its all-zero
    ``E`` row.  Each chunk is ranked by one :func:`rank_cutoffs` call, so
    a smaller cutoff is a prefix of the largest's ranking except on rows
    where a tie straddles its cut.  ``E = P @ (A + L)^T`` is materialised
    in row chunks so peak memory stays ``chunk_size * num_items`` floats.
    """
    num_users = profile.shape[0]
    num_items = noised.shape[0]
    release_t = np.ascontiguousarray(noised.T)
    ranked = {
        int(n): np.empty((num_users, min(int(n), num_items)), dtype=np.intp)
        for n in ns
    }
    zero_signal = ~profile.any(axis=1)
    empty = np.zeros(num_users, dtype=bool)
    for start in range(0, num_users, chunk_size):
        stop = min(start + chunk_size, num_users)
        estimates = estimate_rows(profile[start:stop], release_t)
        for row in np.flatnonzero(zero_signal[start:stop]):
            ladder, _ = ladder_estimates(noised, int(columns[start + row]), sizes)
            if ladder is None:
                empty[start + row] = True
            else:
                estimates[row] = ladder
        for n, rows in rank_cutoffs(estimates, ns).items():
            ranked[n][start:stop] = rows
    return ranked, empty


def _private_dcg(
    utilities: np.ndarray, ranked: Dict[int, np.ndarray], empty: np.ndarray
) -> Dict[int, np.ndarray]:
    """Per-user DCG of the private rankings under the ideal utilities, per cutoff.

    One :func:`dcg_array` pass over the gains of the widest ranking;
    ``np.cumsum`` adds in rank order, so its column ``limit - 1`` is the
    DCG of the first ``limit`` positions bit for bit.  Only a row whose
    ranking at a cutoff is not a prefix of its widest one (a tie
    straddled that cut) gets a DCG of its own; an empty ranking scores 0.
    """
    widest = max(ranked.values(), key=lambda rows: rows.shape[1])
    cumulative = dcg_array(np.take_along_axis(utilities, widest, axis=1))
    private: Dict[int, np.ndarray] = {}
    for n, rows in ranked.items():
        limit = rows.shape[1]
        if limit:
            scores = cumulative[:, limit - 1].copy()
            own = np.flatnonzero((rows != widest[:, :limit]).any(axis=1))
            if own.size:
                gains = np.take_along_axis(utilities[own], rows[own], axis=1)
                scores[own] = dcg_array(gains)[:, -1]
        else:
            scores = np.zeros(rows.shape[0])
        scores[empty] = 0.0
        private[n] = scores
    return private


def _cell_scores(
    profile: np.ndarray,
    utilities: np.ndarray,
    reference_cum: np.ndarray,
    averages: ClusterItemAverages,
    epsilon: float,
    sizes: np.ndarray,
    columns: np.ndarray,
    ns: Sequence[int],
    seeds: Sequence[int],
    chunk_size: int,
) -> Dict[int, List[float]]:
    """Average NDCG@n per repeat for one (measure, epsilon) cell.

    Each repeat is one noise draw and its ledger charge (span
    ``engine.noise``), one ranking of every row at the largest cutoff
    (``engine.rank``) and one cumulative DCG pass read at every cutoff
    (``engine.ndcg``).  The scoring accumulation mirrors the scalar
    chain exactly: ``ndcg_at_n``'s reference-DCG-positive division (1.0
    otherwise), ``average_ndcg``'s sequential per-user summation
    (``np.cumsum``), and the division by the user count.
    """
    num_users = profile.shape[0]
    if num_users == 0:
        raise ExperimentError("cannot score a cell with no evaluation users")
    results: Dict[int, List[float]] = {int(n): [] for n in ns}
    for seed in seeds:
        with span("engine.repeat"):
            with span("engine.noise"):
                rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
                noised = apply_laplace_noise(averages, epsilon, rng)
            with span("engine.rank"):
                ranked, empty = _rank_repeat(
                    profile, noised, sizes, columns, ns, chunk_size
                )
            with span("engine.ndcg"):
                private = _private_dcg(utilities, ranked, empty)
                for n, dcg in private.items():
                    scores = _ndcg_scores(dcg, reference_cum, n)
                    results[n].append(float(np.cumsum(scores)[-1]) / num_users)
    return results


def _ndcg_scores(private: np.ndarray, reference_cum: np.ndarray, n: int) -> np.ndarray:
    """Per-user NDCG@n: ``ndcg_at_n``'s division, 1.0 without reference DCG."""
    width = reference_cum.shape[1]
    reference = (
        reference_cum[:, min(n, width) - 1] if width else np.zeros(private.size)
    )
    scores = np.ones(private.size)
    positive = reference > 0.0
    scores[positive] = private[positive] / reference[positive]
    return scores


class SweepEngine:
    """Shared vectorised scoring for every experiment driver.

    One engine instance amortises kernels, cluster releases, and
    evaluation arrays across measures, clusterings, epsilons, cutoffs,
    and repeats; the drivers construct one per run.  The engine counts
    its work in the active telemetry registry: ``engine.measures``
    (kernels obtained, inside the ``engine.kernel`` span),
    ``engine.cells`` and ``engine.repeats``.

    Args:
        dataset: the evaluation dataset.
        store: optional persistent similarity cache for the kernels;
            its lookups count as ``cache.*``.
        chunk_size: evaluation users per dense scoring chunk; bounds peak
            memory at roughly ``chunk_size * num_items`` floats.
        max_weight / protection / user_clamp: release parameters,
            matching :class:`~repro.core.private.PrivateSocialRecommender`
            defaults.
    """

    def __init__(
        self,
        dataset: SocialRecDataset,
        *,
        store: Optional[SimilarityStore] = None,
        chunk_size: int = 1024,
        max_weight: float = 1.0,
        protection: str = "edge",
        user_clamp: int = 50,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.dataset = dataset
        self.store = store
        self.chunk_size = chunk_size
        self.max_weight = max_weight
        self.protection = protection
        self.user_clamp = user_clamp
        # Keyed by measure_fingerprint: two parameterisations of one
        # measure share a registry name but not a kernel.
        self._kernels: Dict[str, SimilarityMatrix] = {}
        self._evals: Dict[int, _EvalArrays] = {}
        self._clusters: Dict[int, _ClusterArrays] = {}
        self._columns: Dict[Tuple[int, int], np.ndarray] = {}
        self._profiles: Dict[Tuple[str, int, int], np.ndarray] = {}

    # ------------------------------------------------------------------
    # cached preprocessing layers
    # ------------------------------------------------------------------
    def _kernel_for(self, context: EvaluationContext) -> SimilarityMatrix:
        key = measure_fingerprint(context.measure)
        kernel = self._kernels.get(key)
        if kernel is not None:
            return kernel
        with span("engine.kernel"):
            # The context's reference pass already holds this graph's
            # kernel: share it.
            cache = context.similarity
            if cache is None or cache.graph is not self.dataset.social:
                cache = SimilarityCache(context.measure, self.dataset.social)
            kernel = self._kernels[key] = cache.ensure_kernel(self.store).matrix
        incr("engine.measures")
        return kernel

    def _eval_for(
        self, context: EvaluationContext, kernel: SimilarityMatrix
    ) -> _EvalArrays:
        arrays = self._evals.get(id(context))
        if arrays is not None:
            return arrays
        index = kernel.index
        missing = [u for u in context.users if u not in index]
        if missing:
            raise ExperimentError(
                f"evaluation users missing from the similarity kernel: "
                f"{missing[:5]!r}"
            )
        if (
            context.utility_rows is None
            or context.dataset.preferences.items()
            != self.dataset.preferences.items()
        ):
            raise ExperimentError(
                "the sweep engine scores contexts from EvaluationContext.build "
                "over its own dataset's items"
            )
        positions = np.array([index[u] for u in context.users], dtype=np.intp)
        utilities = context.utility_rows.toarray()
        # Utilities are non-negative and a tie has one gain, so the
        # reference ranking's gains are each row's largest utilities in
        # descending order, then zeros.
        reference_gains = np.zeros((len(context.users), context.max_n))
        top = -np.sort(-utilities, axis=1)[:, : context.max_n]
        reference_gains[:, : top.shape[1]] = top
        arrays = _EvalArrays(
            context=context,
            positions=positions,
            utilities=utilities,
            reference_cum=dcg_array(reference_gains),
        )
        self._evals[id(context)] = arrays
        return arrays

    def _cluster_for(
        self, clustering: Clustering, kernel: SimilarityMatrix
    ) -> _ClusterArrays:
        arrays = self._clusters.get(id(clustering))
        users = kernel.users
        if arrays is not None and (
            arrays.users is users or arrays.users == users
        ):
            return arrays
        covering = covering_clustering(clustering, self.dataset.preferences)
        averages = cluster_item_averages(
            self.dataset.preferences,
            covering,
            max_weight=self.max_weight,
            protection=self.protection,
            user_clamp=self.user_clamp,
        )
        arrays = _ClusterArrays(
            clustering=clustering,
            covering=covering,
            users=list(users),
            averages=averages,
            indicator=cluster_indicator(users, covering),
            sizes=np.asarray(covering.sizes(), dtype=float),
        )
        self._clusters[id(clustering)] = arrays
        return arrays

    def _columns_for(
        self, context: EvaluationContext, cluster_arrays: _ClusterArrays
    ) -> np.ndarray:
        key = (id(context), id(cluster_arrays.covering))
        columns = self._columns.get(key)
        if columns is None:
            covering = cluster_arrays.covering
            columns = np.array(
                [
                    covering.cluster_of(u) if u in covering else -1
                    for u in context.users
                ],
                dtype=np.intp,
            )
            self._columns[key] = columns
        return columns

    def _profile_for(
        self,
        kernel: SimilarityMatrix,
        evals: _EvalArrays,
        cluster_arrays: _ClusterArrays,
    ) -> np.ndarray:
        key = (
            measure_fingerprint(evals.context.measure),
            id(evals.context),
            id(cluster_arrays.covering),
        )
        profile = self._profiles.get(key)
        if profile is None:
            profile = profile_rows(
                kernel.matrix, cluster_arrays.indicator, evals.positions
            )
            self._profiles[key] = profile
        return profile

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate_many(
        self,
        context: EvaluationContext,
        clustering: Clustering,
        cells: Sequence[CellSpec],
        base_seed: int = 0,
    ) -> Dict[Tuple[float, int], Tuple[float, float]]:
        """Mean/std NDCG for a batch of (epsilon, ns, repeats) cells.

        Repeat ``r`` of every cell draws its noise from seed
        ``base_seed + r`` — the same stream ``evaluate_factory`` hands the
        recommender factory, so results are interchangeable with
        per-cell ``evaluate_factory``.

        Args:
            context: the cached non-private reference for this measure.
            clustering: the (social) clustering shared by the sweep.
            cells: ``(epsilon, ns, repeats)`` work items.
            base_seed: repeat seed origin.

        Returns:
            ``{(epsilon, n): (mean, std)}`` for every cell.

        Raises:
            ExperimentError: for invalid cutoffs/repeats (mirrors the
                reference path's validation), or a context that
                :meth:`EvaluationContext.build` did not build over this
                engine's items.
        """
        with span("engine.evaluate_many"):
            return self._evaluate_many(context, clustering, cells, base_seed)

    def _evaluate_many(
        self,
        context: EvaluationContext,
        clustering: Clustering,
        cells: Sequence[CellSpec],
        base_seed: int = 0,
    ) -> Dict[Tuple[float, int], Tuple[float, float]]:
        normalised: List[Tuple[float, Tuple[int, ...], int]] = []
        for epsilon, ns, repeats in cells:
            epsilon = validate_epsilon(float(epsilon))
            ns = tuple(int(n) for n in ns)
            if not ns:
                raise ExperimentError("each cell needs at least one n")
            if min(ns) < 1:
                raise ExperimentError(f"n must be >= 1, got {min(ns)}")
            if max(ns) > context.max_n:
                raise ExperimentError(
                    f"requested n={max(ns)} exceeds the context's "
                    f"max_n={context.max_n}"
                )
            if repeats < 1:
                raise ExperimentError(f"repeats must be >= 1, got {repeats}")
            normalised.append((epsilon, ns, int(repeats)))
        results: Dict[Tuple[float, int], Tuple[float, float]] = {}
        if not normalised:
            return results

        kernel = self._kernel_for(context)
        evals = self._eval_for(context, kernel)
        cluster_arrays = self._cluster_for(clustering, kernel)
        columns = self._columns_for(context, cluster_arrays)
        averages = cluster_arrays.averages

        for epsilon, ns, repeats in normalised:
            seeds = [base_seed + r for r in range(repeats)]
            profile = self._profile_for(kernel, evals, cluster_arrays)
            with span("engine.cell"):
                per_cell = _cell_scores(
                    profile,
                    evals.utilities,
                    evals.reference_cum,
                    averages,
                    epsilon,
                    cluster_arrays.sizes,
                    columns,
                    ns,
                    seeds,
                    self.chunk_size,
                )
            incr("engine.cells")
            incr("engine.repeats", len(seeds))
            for n in ns:
                per_repeat = per_cell[n]
                mean = statistics.fmean(per_repeat)
                std = (
                    statistics.pstdev(per_repeat)
                    if len(per_repeat) > 1
                    else 0.0
                )
                results[(epsilon, n)] = (mean, std)
        return results

    def evaluate(
        self,
        context: EvaluationContext,
        clustering: Clustering,
        epsilon: float,
        ns: Sequence[int],
        repeats: int,
        base_seed: int = 0,
    ) -> Dict[int, Tuple[float, float]]:
        """Mean/std NDCG@n for one epsilon at several cutoffs.

        A convenience wrapper over :meth:`evaluate_many`; the result maps
        each cutoff to ``(mean, std)``.
        """
        results = self.evaluate_many(
            context, clustering, [(epsilon, tuple(ns), repeats)], base_seed
        )
        epsilon = validate_epsilon(float(epsilon))
        return {int(n): results[(epsilon, int(n))] for n in ns}

    # ------------------------------------------------------------------
    # single-repeat introspection (degree-effect driver, equivalence tests)
    # ------------------------------------------------------------------
    def _repeat_state(self, context, clustering, epsilon, repeat_seed, ns):
        epsilon = validate_epsilon(float(epsilon))
        kernel = self._kernel_for(context)
        evals = self._eval_for(context, kernel)
        cluster_arrays = self._cluster_for(clustering, kernel)
        columns = self._columns_for(context, cluster_arrays)
        profile = self._profile_for(kernel, evals, cluster_arrays)
        rng = np.random.default_rng(np.random.SeedSequence(int(repeat_seed)))
        noised = apply_laplace_noise(cluster_arrays.averages, epsilon, rng)
        ranked, empty = _rank_repeat(
            profile,
            noised,
            cluster_arrays.sizes,
            columns,
            [int(n) for n in ns],
            self.chunk_size,
        )
        return evals, cluster_arrays, ranked, empty

    def repeat_rankings(
        self,
        context: EvaluationContext,
        clustering: Clustering,
        epsilon: float,
        repeat_seed: int,
        ns: Sequence[int],
    ) -> Dict[int, Dict[UserId, List[ItemId]]]:
        """The exact per-user rankings of one noise repeat, per cutoff.

        Equivalent to fitting ``PrivateSocialRecommender(measure,
        epsilon, seed=repeat_seed, ...)`` and calling ``recommend(u, n)``
        for every evaluation user — the equivalence tests pin this item
        for item.
        """
        _, cluster_arrays, ranked, empty = self._repeat_state(
            context, clustering, epsilon, repeat_seed, ns
        )
        items = cluster_arrays.averages.items
        return {
            n: {
                user: [] if empty[row] else [items[int(p)] for p in rows[row]]
                for row, user in enumerate(context.users)
            }
            for n, rows in ranked.items()
        }

    def per_user_scores(
        self,
        context: EvaluationContext,
        clustering: Clustering,
        epsilon: float,
        repeat_seed: int,
        n: int,
    ) -> Dict[UserId, float]:
        """NDCG@n per evaluation user for one noise repeat.

        Matches ``context.per_user_ndcg_of_rankings`` on the same
        rankings (used by the Figure 3 degree-effect driver).

        Raises:
            ExperimentError: when ``n`` exceeds the context's ``max_n``.
        """
        if n > context.max_n:
            raise ExperimentError(
                f"requested n={n} exceeds the context's max_n={context.max_n}"
            )
        evals, _, ranked, empty = self._repeat_state(
            context, clustering, epsilon, repeat_seed, [n]
        )
        private = _private_dcg(evals.utilities, ranked, empty)[int(n)]
        scores = _ndcg_scores(private, evals.reference_cum, int(n))
        return {
            user: float(scores[row]) for row, user in enumerate(context.users)
        }
