"""One differential harness over every path that serves a release.

Batch scoring, the private recommender, the release server (warmed
through a kernel store, and unwarmed) and the sweep engine all score
through :mod:`repro.core.scoring`.  For one fitted release they must hand
every user the same items in the same order, from the same ladder tier:
users with signal, a zero-signal user, an unknown user, and a user who
joined the social graph after publication — wherever a path accepts
that user.
"""

import pytest

from repro.cache import SimilarityStore
from repro.core.batch import batch_recommend_all
from repro.core.persistence import PublishedRelease
from repro.core.private import PrivateSocialRecommender, louvain_strategy
from repro.datasets.dataset import SocialRecDataset
from repro.experiments.engine import SweepEngine
from repro.experiments.evaluation import EvaluationContext
from repro.resilience.degradation import TIER_GLOBAL, TIER_PERSONALIZED
from repro.similarity.base import get_measure

EPSILON = 1.0
SEED = 5
N = 10
GHOST = "ghost"


@pytest.fixture(scope="module")
def world(lastfm_small):
    """The dataset plus an isolated (zero-signal) user, its clustering, and
    the graph after publication: one more user befriending three others."""
    social = lastfm_small.social.copy()
    users = social.users()
    isolated = max(users) + 1
    social.add_user(isolated)
    dataset = SocialRecDataset("scoring-paths", social, lastfm_small.preferences)
    clustering = louvain_strategy(runs=2, seed=0)(social)
    newcomer = isolated + 1
    grown = social.copy()
    for friend in users[:3]:
        grown.add_edge(newcomer, friend)
    return dataset, clustering, isolated, grown, newcomer


@pytest.mark.parametrize("measure_name", ["cn", "gd", "kz"])
def test_every_path_serves_the_same_lists(world, tmp_path, measure_name):
    dataset, clustering, isolated, grown, newcomer = world
    measure = get_measure(measure_name)
    recommender = PrivateSocialRecommender(
        measure,
        EPSILON,
        n=N,
        clustering_strategy=lambda _graph: clustering,
        seed=SEED,
    )
    recommender.fit(dataset.social, dataset.preferences)
    release = PublishedRelease.from_recommender(recommender)
    store = SimilarityStore(str(tmp_path / "kernels"))

    def server_over(graph, warm):
        server = release.server(graph, measure)
        if warm:
            server.warm(store=store)
        return server

    users = dataset.social.users()
    servers = [server_over(dataset.social, True), server_over(dataset.social, False)]
    batch = batch_recommend_all(recommender, users=users + [GHOST], n=N)
    context = EvaluationContext.build(dataset, measure, max_n=N)
    engine = SweepEngine(dataset)
    rankings = engine.repeat_rankings(context, clustering, EPSILON, SEED, [N])[N]

    for user in users + [GHOST]:
        expected = recommender.recommend(user, n=N)
        for served in [batch[user]] + [s.recommend(user, n=N) for s in servers]:
            assert served.item_ids() == expected.item_ids(), user
            assert served.tier == expected.tier, user
        if user != GHOST:  # the engine scores graph users only
            assert rankings[user] == expected.item_ids(), user
    assert recommender.recommend(isolated, n=N).tier != TIER_PERSONALIZED
    assert recommender.recommend(GHOST, n=N).tier == TIER_GLOBAL

    # Only a server over the grown graph knows the newcomer.
    warm, cold = server_over(grown, True), server_over(grown, False)
    joined = warm.recommend(newcomer, n=N)
    assert joined.tier == TIER_PERSONALIZED
    assert cold.recommend(newcomer, n=N) == joined
