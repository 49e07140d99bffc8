"""Differential test: the exact-utility product against the loops it replaced.

``mu = S @ W`` (:class:`repro.core.scoring.ExactUtilities`) replaced the
per-user dict loops of the exact recommender, the evaluation reference,
the sweep engine's ideal-utility matrix, the NOU baseline, the GS fit,
LRM's workload and indicator builds and the NOU sensitivity.  Those loops
live on here as oracles, each fitted on its own similarity cache, and
every comparison is ``==``: the product, the vectorized GS draws and the
identifier-ranked reference lists must reproduce them bit for bit.

Each comparison runs over two kernel sources, keeping their historical
ids: ``auto`` is production :func:`repro.compute.build_kernel`, and
``python`` serves every kernel from the per-user row loop in
``tests/oracles`` instead, with its own stored order.

The datasets insert users, friendships, items and preference edges in
shuffled order, so graph order, kernel order and identifier order all
differ; they include a social user with no preferences, a
preference-only user, tied utilities whose insertion order differs from
identifier order, and an item universe mixing int and str identifiers.
"""

import math

import numpy as np
import pytest

import repro.cache.store as store_module
from repro.competitors.gs import GroupAndSmooth
from repro.competitors.lrm import LowRankMechanism
from repro.core.baselines import NoiseOnUtility
from repro.core.recommender import SocialRecommender
from repro.core.scoring import top_n_from_vector
from repro.datasets.dataset import SocialRecDataset
from repro.exceptions import NodeNotFoundError
from repro.experiments.engine import SweepEngine
from repro.experiments.evaluation import EvaluationContext
from repro.graph.preference_graph import PreferenceGraph
from repro.graph.social_graph import SocialGraph
from repro.metrics.ndcg import dcg_array
from repro.metrics.ranking import rank_items
from repro.privacy.sensitivity import similarity_column_sums
from repro.similarity.base import get_measure

from tests.oracles.kernels import python_kernel

MEASURES = ["cn", "aa", "gd", "kz"]
BACKENDS = ["auto", "python"]
EPSILONS = [0.2, 1.0, math.inf]
N = 10
MAX_N = 50


# ----------------------------------------------------------------------
# datasets
# ----------------------------------------------------------------------
def _shuffled(dataset, seed):
    """``dataset`` re-inserted in shuffled order, plus a social user with
    no preferences and a preference-only user."""
    rng = np.random.default_rng(seed)
    users = dataset.social.users()
    social = SocialGraph()
    for i in rng.permutation(len(users)):
        social.add_user(users[i])
    friendships = list(dataset.social.edges())
    for i in rng.permutation(len(friendships)):
        u, v = friendships[i]
        social.add_edge(*((v, u) if i % 2 else (u, v)))
    lonely = max(users) + 1
    social.add_edge(lonely, users[0])
    social.add_edge(lonely, users[1])
    preferences = PreferenceGraph()
    items = dataset.preferences.items()
    for i in rng.permutation(len(items)):
        preferences.add_item(items[i])
    edges = list(dataset.preferences.edges())
    for i in rng.permutation(len(edges)):
        user, item, _ = edges[i]
        preferences.add_edge(user, item, weight=1.0 + (i % 3))
    outsider = lonely + 1
    for item in items[:5]:
        preferences.add_edge(outsider, item)
    return SocialRecDataset("shuffled", social, preferences)


def _ties(items):
    """Two friends share every preference, so their common friend's
    utilities tie; items are inserted against identifier order."""
    social = SocialGraph([(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (2, 6)])
    social.add_edge(7, 4)  # a social user with no preferences
    preferences = PreferenceGraph()
    for owner in (2, 3):
        for item in items:
            preferences.add_edge(owner, item)
    preferences.add_edge(5, items[1], weight=2.0)
    preferences.add_edge(6, items[2])
    preferences.add_edge(99, items[0])  # a preference-only user
    return SocialRecDataset("ties", social, preferences)


@pytest.fixture(scope="module")
def datasets(lastfm_small):
    return {
        "shuffled": _shuffled(lastfm_small, seed=7),
        "ties": _ties(["zeta", "beta", "alpha", "mu"]),
        "mixed": _ties([30, "x", 10, "a"]),
    }


DATASETS = ["shuffled", "ties", "mixed"]


def _use_kernels(monkeypatch, backend):
    """Serve every kernel from ``backend``'s source (see module doc)."""
    if backend == "python":
        monkeypatch.setattr(
            store_module,
            "build_kernel",
            lambda graph, measure, stats=None: python_kernel(graph, measure),
        )


def _fitted(recommender, dataset):
    return recommender.fit(dataset.social, dataset.preferences)


def _outsiders(dataset):
    social = dataset.social
    return [u for u in dataset.preferences.users() if u not in social]


# ----------------------------------------------------------------------
# oracles: the loops the product replaced
# ----------------------------------------------------------------------
def loop_utilities(state, user):
    """Definition 3's dict loop (the exact recommender's)."""
    scores = {}
    for v, sim_score in state.similarity.row(user).items():
        if not state.preferences.has_user(v):
            continue
        for item, weight in state.preferences.items_of(v).items():
            scores[item] = scores.get(item, 0.0) + sim_score * weight
    return scores


def loop_column_sums(state):
    """The sensitivity module's column-sum loop."""
    graph = state.social
    sums = {u: 0.0 for u in graph.users()}
    for u in graph.users():
        for v, score in state.similarity.row(u).items():
            sums[v] = sums.get(v, 0.0) + score
    return sums


def loop_nou_vector(state, user, position, seed, scale):
    """NOU's dense utility loop plus its per-user noise."""
    exact = np.zeros(len(state.items))
    for v, sim_score in state.similarity.row(user).items():
        if not state.preferences.has_user(v):
            continue
        for item, weight in state.preferences.items_of(v).items():
            exact[state.item_index[item]] += sim_score * weight
    if scale > 0.0:
        rng = np.random.default_rng(np.random.SeedSequence((seed, position)))
        exact = exact + rng.laplace(0.0, scale, size=exact.size)
    return exact


def loop_gs_estimates(state, epsilon, group_size, seed):
    """``GroupAndSmooth._prepare``'s loops."""
    users = state.social.users()
    user_row = {u: i for i, u in enumerate(users)}
    num_users = len(users)
    num_items = len(state.items)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    true_utilities = np.zeros((num_users, num_items))
    reverse_sim = {u: [] for u in users}
    max_sim = 0.0
    for u in users:
        row = user_row[u]
        for v, score in state.similarity.row(u).items():
            max_sim = max(max_sim, score)
            if v in reverse_sim:
                reverse_sim[v].append((row, score))
            if not state.preferences.has_user(v):
                continue
            for item, weight in state.preferences.items_of(v).items():
                true_utilities[row, state.item_index[item]] += score * weight
    noiseless = math.isinf(epsilon)
    half_eps = epsilon / 2.0 if not noiseless else math.inf
    rough = np.zeros((num_users, num_items))
    for v, item, weight in state.preferences.edges():
        candidates = reverse_sim.get(v)
        if not candidates:
            continue
        row, score = candidates[int(rng.integers(len(candidates)))]
        rough[row, state.item_index[item]] += score * weight
    if not noiseless and max_sim > 0.0:
        rough += rng.laplace(0.0, max_sim / half_eps, size=rough.shape)
    delta_nou = max(loop_column_sums(state).values(), default=0.0)
    m = min(group_size, max(num_users, 1))
    mean_scale = 0.0 if noiseless else (delta_nou / m) / half_eps if delta_nou else 0.0
    estimates = np.zeros((num_users, num_items))
    for col in range(num_items):
        order = np.argsort(rough[:, col], kind="stable")
        for start in range(0, num_users, m):
            group = order[start : start + m]
            mean = float(np.mean(true_utilities[group, col]))
            if mean_scale > 0.0:
                mean += float(rng.laplace(0.0, mean_scale))
            estimates[group, col] = mean
    return estimates


def loop_lrm_factors(state, epsilon, seed):
    """``LowRankMechanism._prepare``'s workload and indicator loops, then
    its factorisation and noise: ``(B, noisy L D)``."""
    users = state.social.users()
    user_row = {u: i for i, u in enumerate(users)}
    num_users = len(users)
    num_items = len(state.items)
    workload = np.zeros((num_users, num_users))
    for u in users:
        for v, score in state.similarity.row(u).items():
            col = user_row.get(v)
            if col is not None:
                workload[user_row[u], col] = score
    u_mat, singular, vt = np.linalg.svd(workload, full_matrices=False)
    r = max(int(np.sum(singular > 1e-9 * singular[0])), 1)
    sqrt_s = np.sqrt(singular[:r])
    factor_b = u_mat[:, :r] * sqrt_s[np.newaxis, :]
    factor_l = sqrt_s[:, np.newaxis] * vt[:r, :]
    indicator = np.zeros((num_users, num_items))
    for user, item, weight in state.preferences.edges():
        row = user_row.get(user)
        if row is not None:
            indicator[row, state.item_index[item]] = weight
    compressed = factor_l @ indicator
    if math.isinf(epsilon):
        return factor_b, compressed
    scale = float(np.max(np.sum(np.abs(factor_l), axis=0))) / epsilon
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2)))
    return factor_b, compressed + rng.laplace(0.0, scale, size=compressed.shape)


def _oracle_state(measure, dataset):
    """A fitted state on a cache of its own, for the loops to read."""
    return _fitted(SocialRecommender(get_measure(measure)), dataset).state


# ----------------------------------------------------------------------
# the comparisons
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("name", DATASETS)
def test_exact_recommender(datasets, monkeypatch, name, measure, backend):
    _use_kernels(monkeypatch, backend)
    dataset = datasets[name]
    oracle = _oracle_state(measure, dataset)
    recommender = _fitted(SocialRecommender(get_measure(measure)), dataset)
    for user in dataset.social.users():
        expected = loop_utilities(oracle, user)
        assert recommender.utilities(user) == expected, user
        ranked = recommender.recommend(user, n=N)
        assert ranked.item_ids() == rank_items(expected, n=N), user
        assert ranked.utilities() == [expected[i] for i in ranked.item_ids()]
    for user in _outsiders(dataset):
        with pytest.raises(NodeNotFoundError):
            recommender.utilities(user)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("name", DATASETS)
def test_evaluation_reference(datasets, monkeypatch, name, measure, backend):
    _use_kernels(monkeypatch, backend)
    dataset = datasets[name]
    oracle = _oracle_state(measure, dataset)
    context = EvaluationContext.build(dataset, get_measure(measure), max_n=MAX_N)
    users = dataset.social.users()
    ideal = {u: loop_utilities(oracle, u) for u in users}
    assert context.ideal_utilities == ideal
    assert context.reference_rankings == {
        u: rank_items(ideal[u], n=MAX_N) for u in users
    }

    # The sweep engine's dense arrays: the dict walks they replaced.
    items = dataset.preferences.items()
    column = {item: j for j, item in enumerate(items)}
    dense = np.zeros((len(users), len(items)))
    gains = np.zeros((len(users), MAX_N))
    for row, user in enumerate(users):
        for item, value in ideal[user].items():
            dense[row, column[item]] = value
        for position, item in enumerate(context.reference_rankings[user]):
            gains[row, position] = ideal[user][item]
    engine = SweepEngine(dataset)
    arrays = engine._eval_for(context, engine._kernel_for(context))
    assert np.array_equal(arrays.utilities, dense)
    assert np.array_equal(arrays.reference_cum, dcg_array(gains))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("name", DATASETS)
def test_column_sums(datasets, monkeypatch, name, measure, backend):
    _use_kernels(monkeypatch, backend)
    dataset = datasets[name]
    oracle = _oracle_state(measure, dataset)
    recommender = _fitted(SocialRecommender(get_measure(measure)), dataset)
    state = recommender.state
    sums = similarity_column_sums(
        state.social, state.similarity.measure, state.similarity
    )
    assert sums == loop_column_sums(oracle)
    assert list(sums) == state.social.users()


@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("name", DATASETS)
def test_noise_on_utility(datasets, monkeypatch, name, measure, backend, epsilon):
    _use_kernels(monkeypatch, backend)
    dataset = datasets[name]
    oracle = _oracle_state(measure, dataset)
    recommender = _fitted(
        NoiseOnUtility(get_measure(measure), epsilon, seed=11), dataset
    )
    delta = max(loop_column_sums(oracle).values(), default=0.0)
    assert recommender.sensitivity_ == delta
    scale = 0.0 if math.isinf(epsilon) else delta / epsilon
    items = oracle.items
    for position, user in enumerate(dataset.social.users()):
        expected = loop_nou_vector(oracle, user, position, 11, scale)
        assert recommender.utilities(user) == {
            item: float(expected[i]) for i, item in enumerate(items)
        }, user
        assert (
            recommender.recommend(user, n=N).item_ids()
            == top_n_from_vector(user, items, expected, N).item_ids()
        ), user


@pytest.mark.parametrize("group_size", [1, 7, 8, 10_000])
@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("name", DATASETS)
def test_group_and_smooth(
    datasets, monkeypatch, name, measure, backend, epsilon, group_size
):
    _use_kernels(monkeypatch, backend)
    dataset = datasets[name]
    oracle = _oracle_state(measure, dataset)
    recommender = _fitted(
        GroupAndSmooth(get_measure(measure), epsilon, group_size=group_size, seed=13),
        dataset,
    )
    expected = loop_gs_estimates(oracle, epsilon, group_size, 13)
    assert np.array_equal(recommender._estimates, expected)


@pytest.mark.parametrize("epsilon", EPSILONS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("name", DATASETS)
def test_low_rank_mechanism(datasets, monkeypatch, name, measure, backend, epsilon):
    _use_kernels(monkeypatch, backend)
    dataset = datasets[name]
    oracle = _oracle_state(measure, dataset)
    recommender = _fitted(
        LowRankMechanism(get_measure(measure), epsilon, seed=17), dataset
    )
    factor_b, noisy = loop_lrm_factors(oracle, epsilon, 17)
    assert np.array_equal(recommender._B, factor_b)
    assert np.array_equal(recommender._noisy_LD, noisy)
