"""Run the doctest examples embedded in public docstrings.

The examples in docstrings are part of the documentation contract; this
module executes them so they cannot rot.
"""

import doctest

import pytest

import repro.community.clustering
import repro.core.dynamic
import repro.core.recommender
import repro.graph.preference_graph
import repro.graph.social_graph
import repro.types

MODULES = [
    repro.graph.social_graph,
    repro.graph.preference_graph,
    repro.core.recommender,
    repro.core.dynamic,
    repro.types,
    repro.community.clustering,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module}"
