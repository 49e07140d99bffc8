"""The red-team audit driver: empirical epsilon vs the ledger, per cell.

:func:`run_privacy_audit` runs the membership-inference and
edge-reconstruction attacks across a (measure, epsilon, target) grid and
emits one :class:`AuditCell` per combination, placing the attacks'
certified **empirical** epsilon lower bound next to the **analytical**
epsilon the privacy ledger composed for the same release — the two
numbers the ROADMAP wants on one plot.  A cell where
``eps_empirical > eps_analytical`` is a correctness bug somewhere in the
mechanism or the ledger; :meth:`AuditReport.violations` finds them and
the CLI's ``--strict`` flag turns them into a failing exit code.

Audit protocol (fixed per run, all derived from the master seed):

1. Pick the attacked edge ``(victim, item)`` — the first social user
   with enough preference edges, their first shared item — and build
   the two neighbouring preference graphs.
2. Plan the sybil observation channel on the social graph (the service
   fits whatever graph contains the attacker's accounts) and cluster
   the attacked graph once with the paper's Louvain protocol.
3. Hoist the exact cluster-item averages of both worlds out of the
   sweep — the same factoring the vectorized sweep engine uses — so a
   membership trial costs one scaled noise draw and a reconstruction
   repeat costs one Laplace tensor.
4. Per measure, build one similarity cache on the attacked graph: it
   obtains the one kernel (through ``store``) for the observer's
   cluster-similarity vector, a row of the scoring core's profile
   ``P = S @ C`` (:mod:`repro.core.scoring`), and every deployed fit
   shares it, so the kernel and LRM's workload SVD (both public) are
   computed once per measure.  Derive canonical
   unit-noise streams
   (``SeedSequence(seed)`` -> per-measure children) shared across the
   epsilon sweep: common random numbers make the per-measure bounds
   monotone in epsilon by construction, and the whole report
   bit-reproducible from the master seed.
5. Per cell, window the active telemetry registry's privacy ledger:
   ``eps_analytical`` is the per-release composed epsilon
   (:class:`~repro.obs.ledger.PrivacyLedgerView`; repeats are
   Monte-Carlo observations of one deployed release, so the *per
   release* value — not the across-repeat total — is the claim under
   audit).  Mechanisms that never record a release (the baselines and
   competitors carry no ledger instrumentation) get ``None``:
   analytically unaccounted, which no empirical bound can violate.

Everything runs under an ``attacks.audit`` span with per-cell
``attacks.cell`` spans (each deployed fit inside an ``attacks.fit``
span) and ``attacks.*`` counters; when no registry is
active the audit installs a local one so the ledger read-out always
works.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.estimator import EPS_SENTINEL
from repro.attacks.membership import (
    MembershipResult,
    deterministic_membership_result,
    run_membership_attack,
    unit_laplace_draws,
)
from repro.attacks.reconstruction import (
    ReconstructionResult,
    edge_recovery_scores,
    victim_edge_mask,
)
from repro.attacks.sybil import SybilAttack
from repro.core.baselines import NoiseOnEdges, NoiseOnUtility
from repro.core.cluster_weights import (
    ClusterItemAverages,
    apply_laplace_noise,
    cluster_item_averages,
)
from repro.core.private import covering_clustering, louvain_strategy
from repro.core.scoring import ClusterProfile
from repro.datasets.dataset import SocialRecDataset
from repro.exceptions import ExperimentError
from repro.obs.ledger import PrivacyLedgerView
from repro.obs.registry import Telemetry, get_telemetry
from repro.obs.registry import incr as obs_incr
from repro.obs.registry import telemetry as obs_telemetry
from repro.obs.spans import span
from repro.similarity.base import SimilarityCache, get_measure
from repro.types import ItemId, UserId

__all__ = [
    "AUDIT_TARGETS",
    "AuditCell",
    "AuditReport",
    "format_audit_table",
    "run_privacy_audit",
]

#: Mechanisms the audit knows how to attack.
AUDIT_TARGETS = ("private", "nou", "noe", "lrm", "gs")


@dataclass(frozen=True)
class AuditCell:
    """One (target, measure, epsilon) audit outcome.

    ``eps_analytical`` is None when the target recorded no ledger
    release — an analytically unaccounted mechanism, treated as
    unbounded by :meth:`AuditCell.violates`.
    """

    target: str
    measure: str
    epsilon: float
    membership: MembershipResult
    reconstruction: ReconstructionResult
    eps_analytical: Optional[float]
    ledger_releases: int
    ledger_total_epsilon: float

    @property
    def eps_empirical(self) -> float:
        return self.membership.eps_empirical

    def violates(self, slack: float = 1e-9) -> bool:
        """True when the empirical bound exceeds the analytical claim."""
        if self.eps_analytical is None:
            return False
        return self.eps_empirical > self.eps_analytical + slack

    def to_jsonable(self) -> Dict:
        estimate = self.membership.estimate
        return {
            "target": self.target,
            "measure": self.measure,
            "epsilon": self.epsilon,
            "eps_empirical": self.eps_empirical,
            "eps_analytical": self.eps_analytical,
            "deterministic": estimate.deterministic,
            "clipped": estimate.clipped,
            "ledger_releases": self.ledger_releases,
            "ledger_total_epsilon": self.ledger_total_epsilon,
            "membership": {
                "trials": self.membership.trials,
                "tpr": estimate.tpr,
                "fpr": estimate.fpr,
                "threshold": estimate.threshold,
                "direction": estimate.direction,
                "failure_probability": estimate.failure_probability,
            },
            "reconstruction": {
                "repeats": self.reconstruction.repeats,
                "auc": self.reconstruction.auc,
                "recovery": self.reconstruction.recovery,
            },
        }


@dataclass(frozen=True)
class AuditReport:
    """The full audit: configuration, attacked edge, and every cell."""

    victim: UserId
    observer: UserId
    item: ItemId
    seed: int
    trials: int
    repeats: int
    sentinel: float
    cells: Tuple[AuditCell, ...]

    def cell(self, target: str, measure: str, epsilon: float) -> AuditCell:
        for candidate in self.cells:
            if (
                candidate.target == target
                and candidate.measure == measure
                and candidate.epsilon == epsilon
            ):
                return candidate
        raise KeyError((target, measure, epsilon))

    def violations(self, slack: float = 1e-9) -> List[AuditCell]:
        """Cells whose empirical bound exceeds the ledger's claim."""
        return [cell for cell in self.cells if cell.violates(slack)]

    def to_jsonable(self) -> Dict:
        return {
            "version": 1,
            "kind": "privacy-audit",
            "config": {
                "victim": repr(self.victim),
                "observer": repr(self.observer),
                "item": repr(self.item),
                "seed": self.seed,
                "trials": self.trials,
                "repeats": self.repeats,
                "sentinel": self.sentinel,
            },
            "cells": [cell.to_jsonable() for cell in self.cells],
        }


def format_audit_table(report: AuditReport) -> str:
    """A human-readable per-cell table of the audit outcome."""
    header = (
        f"{'target':<8} {'measure':<7} {'eps':>6} "
        f"{'eps_empirical':>14} {'eps_analytical':>14} "
        f"{'recon_auc':>9} {'recovery':>8}"
    )
    lines = [
        f"privacy audit: victim={report.victim!r} item={report.item!r} "
        f"observer={report.observer!r} trials={report.trials} "
        f"seed={report.seed}",
        header,
        "-" * len(header),
    ]
    for cell in report.cells:
        if cell.membership.estimate.clipped:
            empirical = f">= {report.sentinel:.0e}"
        else:
            empirical = f"{cell.eps_empirical:.4f}"
        analytical = (
            "unaccounted"
            if cell.eps_analytical is None
            else f"{cell.eps_analytical:.4f}"
        )
        lines.append(
            f"{cell.target:<8} {cell.measure:<7} {cell.epsilon:>6g} "
            f"{empirical:>14} {analytical:>14} "
            f"{cell.reconstruction.auc:>9.3f} "
            f"{cell.reconstruction.recovery:>8.3f}"
        )
    violations = report.violations()
    if violations:
        lines.append(
            f"VIOLATIONS: {len(violations)} cell(s) exceed the ledger claim"
        )
    else:
        lines.append("all cells satisfy eps_empirical <= eps_analytical")
    return "\n".join(lines)


@contextmanager
def _active_registry() -> Iterator[Telemetry]:
    """The active telemetry registry, installing a local one if needed.

    The ledger read-out needs *some* registry; a caller-provided one
    (e.g. the CLI's ``--profile``) is reused so the audit's spans and
    ledger land in the run's trace.
    """
    existing = get_telemetry()
    if existing is not None:
        yield existing
        return
    with obs_telemetry(Telemetry(trace=False)) as registry:
        yield registry


def _choose_attacked_edge(
    dataset: SocialRecDataset,
    victim: Optional[UserId],
    item: Optional[ItemId],
) -> Tuple[UserId, ItemId]:
    """The attacked edge: deterministic, and safe to remove.

    The item must be shared with another user so the neighbouring
    world keeps the same item universe alignment, and the victim must
    keep at least one edge so reconstruction still has a target.
    """
    preferences = dataset.preferences
    if victim is None:
        for candidate in dataset.social.users():
            if (
                preferences.has_user(candidate)
                and preferences.user_degree(candidate) >= 2
            ):
                victim = candidate
                break
        if victim is None:
            raise ExperimentError(
                "no social user with >= 2 preference edges to attack"
            )
    if not preferences.has_user(victim) or not preferences.user_degree(victim):
        raise ExperimentError(f"victim {victim!r} has no preference edges")
    if item is None:
        owned = preferences.items_of(victim)
        shared = [i for i in owned if preferences.item_degree(i) >= 2]
        item = shared[0] if shared else next(iter(owned))
    if not preferences.has_edge(victim, item):
        raise ExperimentError(f"edge ({victim!r}, {item!r}) not in the dataset")
    return victim, item


def _fit_deployed_target(
    target: str,
    epsilon: float,
    similarity: SimilarityCache,
    preferences,
    seed: int,
):
    """One deployed (fixed-seed) mechanism, fitted on the attacked graph
    that ``similarity`` wraps and sharing that cache."""
    measure = similarity.measure
    if target == "nou":
        recommender = NoiseOnUtility(measure, epsilon, seed=seed)
    elif target == "noe":
        recommender = NoiseOnEdges(measure, epsilon, seed=seed)
    elif target == "lrm":
        from repro.competitors.lrm import LowRankMechanism

        recommender = LowRankMechanism(measure, epsilon, seed=seed)
    elif target == "gs":
        from repro.competitors.gs import GroupAndSmooth

        recommender = GroupAndSmooth(measure, epsilon, seed=seed)
    else:
        raise ExperimentError(f"unknown audit target {target!r}")
    with span("attacks.fit"):
        recommender.fit(similarity.graph, preferences, similarity=similarity)
    return recommender


def _ledger_window(
    registry: Telemetry, start: int
) -> Tuple[Optional[float], int, float]:
    """``(eps_analytical, releases, total_epsilon)`` since ``start``.

    ``eps_analytical`` is the per-release composed epsilon (max across
    the window's releases — they are repeats of one deployed release
    and all compose to the same value for a correct mechanism).
    """
    entries = registry.ledger_entries[start:]
    view = PrivacyLedgerView(entries)
    per_release = view.release_epsilons()
    if not per_release:
        return None, 0, 0.0
    return max(per_release.values()), len(per_release), view.total_epsilon()


def _audit_private_cell(
    averages: Tuple[ClusterItemAverages, ClusterItemAverages],
    victim: UserId,
    item: ItemId,
    epsilon: float,
    draws: Tuple[np.ndarray, np.ndarray],
    sim_vector: np.ndarray,
    positives: np.ndarray,
    observer: UserId,
    repeat_streams: Sequence[np.random.SeedSequence],
) -> Tuple[MembershipResult, ReconstructionResult]:
    averages_without, averages_with = averages
    membership = run_membership_attack(
        averages_without,
        averages_with,
        victim,
        item,
        epsilon,
        draws[0],
        draws[1],
    )
    aucs: List[float] = []
    recoveries: List[float] = []
    for stream in repeat_streams:
        rng = np.random.default_rng(stream)
        released = apply_laplace_noise(averages_with, epsilon, rng=rng)
        scores = released @ sim_vector
        auc, recovery = edge_recovery_scores(scores, positives)
        aucs.append(auc)
        recoveries.append(recovery)
    reconstruction = ReconstructionResult(
        victim=victim,
        observer=observer,
        repeats=len(repeat_streams),
        auc=float(np.mean(aucs)),
        recovery=float(np.mean(recoveries)),
        auc_per_repeat=tuple(aucs),
        deterministic=False,
    )
    return membership, reconstruction


def _audit_deployed_cell(
    target: str,
    epsilon: float,
    similarity: SimilarityCache,
    worlds: Tuple,
    victim: UserId,
    item: ItemId,
    observer: UserId,
    items: Sequence[ItemId],
    positives: np.ndarray,
    seed: int,
    attack: SybilAttack,
) -> Tuple[MembershipResult, ReconstructionResult]:
    preferences_without, preferences_with = worlds
    fitted_without = _fit_deployed_target(
        target, epsilon, similarity, preferences_without, seed
    )
    fitted_with = _fit_deployed_target(
        target, epsilon, similarity, preferences_with, seed
    )
    scores_without = attack.readout_scores(fitted_without, observer, items)
    scores_with = attack.readout_scores(fitted_with, observer, items)
    item_position = list(items).index(item)
    membership = deterministic_membership_result(
        victim,
        item,
        float(scores_without[item_position]),
        float(scores_with[item_position]),
    )
    auc, recovery = edge_recovery_scores(scores_with, positives)
    reconstruction = ReconstructionResult(
        victim=victim,
        observer=observer,
        repeats=1,
        auc=auc,
        recovery=recovery,
        auc_per_repeat=(auc,),
        deterministic=True,
    )
    return membership, reconstruction


def run_privacy_audit(
    dataset: SocialRecDataset,
    measures: Sequence[str] = ("cn",),
    epsilons: Sequence[float] = (0.1, 0.5, 1.0, 2.0),
    targets: Sequence[str] = ("private", "nou", "noe"),
    trials: int = 1000,
    repeats: int = 3,
    seed: int = 0,
    store=None,
    victim: Optional[UserId] = None,
    item: Optional[ItemId] = None,
    louvain_runs: int = 5,
) -> AuditReport:
    """Run the full red-team audit over a (target, measure, epsilon) grid.

    Args:
        dataset: the dataset under audit (social + preference graphs).
        measures: similarity-measure registry names.
        epsilons: the privacy sweep (``math.inf`` allowed: audited as a
            deterministic release, ledger-unaccounted by design).
        targets: mechanisms to attack, from :data:`AUDIT_TARGETS`.
        trials: membership samples per world per cell.
        repeats: fresh releases scored by the reconstruction attack
            (private target only; deployed targets are deterministic).
        seed: master seed — the entire report is a pure function of it.
        store: optional :class:`~repro.cache.store.SimilarityStore` for
            kernel reuse across audits.
        victim / item: override the attacked edge (default: chosen
            deterministically from the dataset).
        louvain_runs: Louvain restarts for the clustering protocol.

    Raises:
        ExperimentError: for an unknown target, an unattackable
            dataset, or an invalid grid (an empty or duplicated measure,
            epsilon or target; measures compare case-insensitively).
    """
    unknown = [t for t in targets if t not in AUDIT_TARGETS]
    if unknown:
        raise ExperimentError(
            f"unknown audit target(s) {unknown!r}; known: {AUDIT_TARGETS}"
        )
    if not measures or not epsilons or not targets:
        raise ExperimentError("measures, epsilons, and targets must be non-empty")
    # AuditReport.cell() reaches only the first of two equal cells.
    for kind, keys in (
        ("measure", [name.lower() for name in measures]),
        ("epsilon", list(epsilons)),
        ("target", list(targets)),
    ):
        repeated = [key for i, key in enumerate(keys) if key in keys[:i]]
        if repeated:
            raise ExperimentError(
                f"duplicate audit {kind} {repeated[0]!r}: each must appear once"
            )
    if trials < 1 or repeats < 1:
        raise ExperimentError("trials and repeats must be >= 1")

    with _active_registry() as registry, span("attacks.audit"):
        victim, item = _choose_attacked_edge(dataset, victim, item)
        preferences_with = dataset.preferences
        preferences_without = preferences_with.without_edge(victim, item)
        attack = SybilAttack()
        attacked_graph, observer = attack.plan(dataset.social, victim)

        with span("attacks.clustering"):
            clustering = covering_clustering(
                louvain_strategy(runs=louvain_runs, seed=seed)(attacked_graph),
                preferences_with,
            )
        with span("attacks.averages"):
            averages_with = cluster_item_averages(preferences_with, clustering)
            averages_without = cluster_item_averages(preferences_without, clustering)
        items = averages_with.items
        positives = victim_edge_mask(preferences_with, victim, items)

        root = np.random.SeedSequence(seed)
        measure_roots = root.spawn(len(measures))

        cells: List[AuditCell] = []
        for measure_index, measure_name in enumerate(measures):
            stream_without, stream_with, recon_root = measure_roots[
                measure_index
            ].spawn(3)
            draws = (
                unit_laplace_draws(stream_without, trials),
                unit_laplace_draws(stream_with, trials),
            )
            similarity = SimilarityCache(get_measure(measure_name), attacked_graph)
            kernel = similarity.ensure_kernel(store).matrix
            sim_vector = ClusterProfile(kernel, clustering).row(observer)
            repeat_streams = recon_root.spawn(len(epsilons) * repeats)
            for target in targets:
                for eps_index, epsilon in enumerate(epsilons):
                    with span("attacks.cell"):
                        ledger_start = len(registry.ledger_entries)
                        if target == "private":
                            membership, reconstruction = _audit_private_cell(
                                (averages_without, averages_with),
                                victim,
                                item,
                                epsilon,
                                draws,
                                sim_vector,
                                positives,
                                observer,
                                repeat_streams[
                                    eps_index * repeats : (eps_index + 1) * repeats
                                ],
                            )
                        else:
                            membership, reconstruction = _audit_deployed_cell(
                                target,
                                epsilon,
                                similarity,
                                (preferences_without, preferences_with),
                                victim,
                                item,
                                observer,
                                items,
                                positives,
                                seed,
                                attack,
                            )
                        analytical, releases, ledger_total = _ledger_window(
                            registry, ledger_start
                        )
                        obs_incr("attacks.cells")
                        cells.append(
                            AuditCell(
                                target=target,
                                measure=measure_name,
                                epsilon=epsilon,
                                membership=membership,
                                reconstruction=reconstruction,
                                eps_analytical=analytical,
                                ledger_releases=releases,
                                ledger_total_epsilon=ledger_total,
                            )
                        )

        return AuditReport(
            victim=victim,
            observer=observer,
            item=item,
            seed=seed,
            trials=trials,
            repeats=repeats,
            sentinel=EPS_SENTINEL,
            cells=tuple(cells),
        )
