"""The scoring core's ranking contract: ``rank_rows`` and ``rank_cutoffs``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring import (
    RANK_BLOCK,
    rank_cutoffs,
    rank_rows,
    top_n_from_vector,
)
from repro.metrics.ranking import rank_items


@st.composite
def tie_heavy_estimates(draw):
    """Estimates in {0, 1, 2}, so most cuts fall inside a tie; up to 130
    rows, so a matrix spans more than one ``RANK_BLOCK``."""
    rows = draw(st.integers(1, 2 * RANK_BLOCK + 2))
    items = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.integers(0, 3, size=(rows, items)).astype(float)


@st.composite
def estimates_and_limits(draw):
    """Estimates, and limits with 1, the item count, one above it, and a
    duplicate among them."""
    estimates = draw(tie_heavy_estimates())
    items = estimates.shape[1]
    drawn = draw(st.lists(st.integers(1, items + 5), min_size=1, max_size=4))
    limits = drawn + [1, items, items + 1 + draw(st.integers(0, 10)), drawn[0]]
    return estimates, draw(st.permutations(limits))


class TestRankCutoffs:
    @given(estimates_and_limits())
    @settings(max_examples=200, deadline=None)
    def test_every_cutoff_equals_rank_rows(self, case):
        estimates, limits = case
        ranked = rank_cutoffs(estimates, limits)
        assert set(ranked) == set(limits)
        for limit in limits:
            expected = rank_rows(estimates, limit)
            assert ranked[limit].dtype == expected.dtype
            np.testing.assert_array_equal(ranked[limit], expected)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "rank_rows keeps argpartition's choice of the items tied at the "
        "cut, not the lowest positions (ROADMAP open item)"
    ),
)
def test_top_n_from_vector_breaks_boundary_ties_like_rank_items():
    """Served lists should be ``rank_items``' order: equal estimates go to
    the lower item position, at the cut too."""
    rng = np.random.default_rng(20)
    items = list(range(20))
    vectors = [np.array([0, 2, 2, 0, 1, 2, 1, 0, 2, 2, 2, 0, 0, 2, 0, 1, 0, 0, 1, 1])]
    vectors += [rng.integers(0, 3, size=len(items)) for _ in range(50)]
    for vector in vectors:
        utilities = dict(zip(items, vector.astype(float)))
        for n in (1, 5, 10):
            served = top_n_from_vector("u", items, vector.astype(float), n)
            assert served.item_ids() == rank_items(utilities, n)
