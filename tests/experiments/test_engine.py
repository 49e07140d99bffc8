"""Unit tests for the vectorized sweep engine.

The contract under test is *exact* equivalence: every number the
vectorized engine produces — cell means/stds, per-user scores, the item
order of each ranking — must equal the per-user reference path
(:mod:`tests.oracles.sweep`: per-cell ``evaluate_factory``) bit-for-bit.
The engine is the drivers' only scoring path, so an exception inside a
cell must reach the caller rather than be rescored elsewhere.
"""

import math

import pytest

import repro.core.cluster_weights as cluster_weights
from repro.community.strategies import (
    single_cluster_clustering,
    singleton_clustering,
)
from repro.core.private import PrivateSocialRecommender, louvain_strategy
from repro.exceptions import ExperimentError
from repro.experiments.comparison import run_comparison
from repro.experiments.degree_effect import run_degree_effect
from repro.experiments.ablation import run_clustering_ablation
from repro.experiments.engine import SweepEngine
from repro.experiments.evaluation import EvaluationContext
from repro.experiments.tradeoff import run_tradeoff
from repro.obs import PrivacyLedgerView, current_span_path, telemetry
from repro.similarity.adamic_adar import AdamicAdar
from repro.similarity.common_neighbors import CommonNeighbors
from repro.similarity.graph_distance import GraphDistance
from repro.similarity.katz import Katz
from tests.oracles import sweep as oracle

MEASURE = CommonNeighbors()


@pytest.fixture(scope="module")
def clustering(lastfm_small):
    return louvain_strategy(runs=3, seed=0)(lastfm_small.social)


@pytest.fixture(scope="module")
def context(lastfm_small):
    return EvaluationContext.build(lastfm_small, MEASURE, max_n=50, seed=0)


@pytest.fixture
def engine(lastfm_small):
    eng = SweepEngine(lastfm_small)
    yield eng
    eng.close()


class TestValidation:
    def test_unknown_engine_rejected(self, lastfm_small):
        # One sweep path: no driver takes an engine selector.
        drivers = [
            lambda: run_comparison(lastfm_small, [MEASURE], engine="reference"),
            lambda: run_degree_effect(lastfm_small, MEASURE, engine="reference"),
            lambda: run_clustering_ablation(lastfm_small, MEASURE, engine="reference"),
        ]
        for driver in drivers:
            with pytest.raises(TypeError):
                driver()

    def test_run_tradeoff_rejects_unknown_engine(self, lastfm_small):
        with pytest.raises(TypeError):
            run_tradeoff(lastfm_small, [MEASURE], engine="reference")

    def test_bad_chunk_size_rejected(self, lastfm_small):
        with pytest.raises(ValueError, match="chunk_size"):
            SweepEngine(lastfm_small, chunk_size=0)

    def test_bad_backend_rejected(self, lastfm_small):
        with pytest.raises(TypeError):
            SweepEngine(lastfm_small, backend="python")

    def test_hand_assembled_context_rejected(self, engine, context, clustering):
        assembled = EvaluationContext(
            dataset=context.dataset,
            measure=context.measure,
            users=context.users,
            max_n=context.max_n,
            reference_rankings=context.reference_rankings,
            ideal_utilities=context.ideal_utilities,
        )
        with pytest.raises(ExperimentError, match="EvaluationContext.build"):
            engine.evaluate_many(assembled, clustering, [(1.0, [10], 1)])


class TestEquivalence:
    @pytest.mark.parametrize("epsilon", [math.inf, 1.0, 0.1])
    def test_evaluate_matches_reference_exactly(
        self, engine, context, clustering, epsilon
    ):
        repeats = 1 if math.isinf(epsilon) else 2
        scored = engine.evaluate(
            context, clustering, epsilon, [10, 50], repeats, base_seed=11
        )
        for n in (10, 50):
            assert scored[n] == oracle.cell_scores(
                context, clustering, epsilon, n, repeats, base_seed=11
            )

    def test_chunked_scoring_identical(self, lastfm_small, context, clustering):
        with SweepEngine(lastfm_small) as whole, SweepEngine(
            lastfm_small, chunk_size=7
        ) as chunked:
            assert whole.evaluate(
                context, clustering, 0.5, [10, 50], 2, base_seed=3
            ) == chunked.evaluate(
                context, clustering, 0.5, [10, 50], 2, base_seed=3
            )

    def test_repeat_rankings_match_recommender(
        self, engine, context, clustering, lastfm_small
    ):
        def fixed(_graph):
            return clustering

        recommender = PrivateSocialRecommender(
            MEASURE, epsilon=1.0, n=10, clustering_strategy=fixed, seed=5
        )
        recommender.fit(lastfm_small.social, lastfm_small.preferences)
        rankings = engine.repeat_rankings(context, clustering, 1.0, 5, [10])[10]
        for user in context.users:
            assert rankings[user] == recommender.recommend(user, n=10).item_ids()

    def test_per_user_scores_match_reference(
        self, engine, context, clustering, lastfm_small
    ):
        def fixed(_graph):
            return clustering

        recommender = PrivateSocialRecommender(
            MEASURE, epsilon=math.inf, n=50, clustering_strategy=fixed, seed=0
        )
        recommender.fit(lastfm_small.social, lastfm_small.preferences)
        rankings = {
            u: recommender.recommend(u, n=50).item_ids() for u in context.users
        }
        expected = context.per_user_ndcg_of_rankings(rankings, 50)
        assert engine.per_user_scores(
            context, clustering, math.inf, 0, 50
        ) == expected

    def test_run_tradeoff_engines_identical(self, lastfm_small, clustering):
        kwargs = dict(
            measures=[MEASURE, AdamicAdar()],
            epsilons=(math.inf, 1.0, 0.1),
            ns=(10, 50),
            repeats=2,
            seed=0,
        )
        vectorized = run_tradeoff(lastfm_small, clustering=clustering, **kwargs)
        reference = oracle.tradeoff_cells(lastfm_small, clustering=clustering, **kwargs)
        assert list(vectorized) == reference

    def test_run_degree_effect_engines_identical(self, lastfm_small, clustering):
        result = run_degree_effect(
            lastfm_small, MEASURE, n=20, clustering=clustering, seed=0
        )
        reference = oracle.degree_effect_scores(
            lastfm_small, MEASURE, clustering, n=20, seed=0
        )
        assert {user: score for user, _, score in result.points} == reference

    def test_run_comparison_cluster_engines_identical(self, lastfm_small):
        vectorized = run_comparison(
            lastfm_small,
            [MEASURE],
            epsilons=(1.0,),
            n=10,
            mechanisms=("cluster",),
            repeats=2,
            louvain_runs=2,
            seed=0,
        )
        # The driver's own clustering protocol, reproduced.
        clustering = louvain_strategy(runs=2, seed=0)(lastfm_small.social)
        reference = oracle.comparison_cells(
            lastfm_small, [MEASURE], (1.0,), 10, 2, clustering, seed=0
        )
        assert vectorized == reference

    def test_clustering_ablation_engines_identical(self, lastfm_small):
        users = lastfm_small.social.users()
        strategies = {
            "single-cluster": single_cluster_clustering(users),
            "singleton": singleton_clustering(users),
        }
        vectorized = run_clustering_ablation(
            lastfm_small,
            MEASURE,
            epsilon=1.0,
            n=10,
            repeats=2,
            strategies=strategies,
            seed=0,
        )
        reference = oracle.ablation_cells(
            lastfm_small, MEASURE, strategies, 1.0, 10, 2, seed=0
        )
        assert vectorized == reference


class TestStats:
    def test_vectorized_result_carries_stats(self, lastfm_small):
        cells = run_tradeoff(
            lastfm_small,
            measures=[MEASURE],
            epsilons=(1.0,),
            ns=(10,),
            repeats=2,
            seed=0,
        )
        assert cells.stats is not None
        assert cells.stats.cells == 1
        assert cells.stats.repeats == 2
        assert cells.stats.wall_seconds > 0.0


class TestLedger:
    """Every repeat draws through ``apply_laplace_noise``, which charges it."""

    def test_each_finite_draw_charged_once_inside_engine_noise(
        self, engine, context, clustering, monkeypatch
    ):
        record = cluster_weights.record_laplace_release
        paths = []

        def spy(*args, **kwargs):
            paths.append(current_span_path())
            return record(*args, **kwargs)

        monkeypatch.setattr(cluster_weights, "record_laplace_release", spy)
        cells = [(math.inf, [10], 1), (1.0, [10, 50], 2), (0.1, [10], 3)]
        with telemetry() as registry:
            engine.evaluate_many(context, clustering, cells)
        view = PrivacyLedgerView(registry.ledger_entries)
        assert list(view.release_epsilons().values()) == [1.0] * 2 + [0.1] * 3
        assert len(paths) == 5
        assert all(path.endswith("/engine.repeat/engine.noise") for path in paths)

    def test_single_repeat_charges_one_release(self, engine, context, clustering):
        with telemetry() as registry:
            engine.repeat_rankings(context, clustering, math.inf, 5, [10])
            engine.per_user_scores(context, clustering, 0.5, 5, 10)
        view = PrivacyLedgerView(registry.ledger_entries)
        assert list(view.release_epsilons().values()) == [0.5]


class TestKernelCache:
    @pytest.mark.parametrize(
        "first, second",
        [
            (Katz(alpha=0.05), Katz(alpha=0.5)),
            (GraphDistance(max_distance=1), GraphDistance(max_distance=3)),
        ],
        ids=["kz-alpha", "gd-cutoff"],
    )
    def test_same_name_measures_score_with_their_own_kernels(
        self, lastfm_small, clustering, first, second
    ):
        """Two parameterisations of one measure share a registry name but
        not a kernel: a shared engine must score each with its own."""
        contexts = [
            EvaluationContext.build(lastfm_small, measure, max_n=10, seed=0)
            for measure in (first, second)
        ]
        with SweepEngine(lastfm_small) as shared:
            shared.repeat_rankings(contexts[0], clustering, 1.0, 5, [10])
            actual = shared.repeat_rankings(contexts[1], clustering, 1.0, 5, [10])
        with SweepEngine(lastfm_small) as fresh:
            expected = fresh.repeat_rankings(contexts[1], clustering, 1.0, 5, [10])
        assert actual == expected
        assert shared.stats.measures == 2


class Boom(RuntimeError):
    """An exception raised inside engine cell scoring."""


def _raise_boom(*_args, **_kwargs):
    raise Boom("cell scoring failed")


@pytest.mark.faults
class TestErrorsPropagate:
    """The engine is every driver's one scoring path: an exception inside
    a cell reaches the caller with its own type, not a rescored cell."""

    @pytest.mark.parametrize(
        "driver",
        [
            lambda data, clustering: run_tradeoff(
                data,
                [MEASURE],
                epsilons=(1.0,),
                ns=(10,),
                repeats=1,
                clustering=clustering,
            ),
            lambda data, clustering: run_comparison(
                data,
                [MEASURE],
                epsilons=(1.0,),
                n=10,
                mechanisms=("cluster",),
                repeats=1,
                louvain_runs=1,
            ),
            lambda data, clustering: run_clustering_ablation(
                data,
                MEASURE,
                epsilon=1.0,
                n=10,
                repeats=1,
                strategies={"louvain": clustering},
            ),
            lambda data, clustering: run_degree_effect(
                data, MEASURE, n=10, clustering=clustering
            ),
        ],
        ids=["tradeoff", "comparison", "ablation", "degree-effect"],
    )
    def test_cell_scoring_error_reaches_the_caller(
        self, lastfm_small, clustering, monkeypatch, driver
    ):
        monkeypatch.setattr("repro.experiments.engine.rank_cutoffs", _raise_boom)
        with pytest.raises(Boom):
            driver(lastfm_small, clustering)
