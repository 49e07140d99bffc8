"""Unit tests for the Figure 4 mechanism-comparison driver."""

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.comparison import (
    format_comparison_table,
    run_comparison,
)
from repro.obs.registry import Telemetry, telemetry
from repro.similarity.adamic_adar import AdamicAdar
from repro.similarity.common_neighbors import CommonNeighbors


@pytest.fixture(scope="module")
def cells(lastfm_small):
    return run_comparison(
        lastfm_small,
        measures=[CommonNeighbors()],
        epsilons=(1.0, 0.1),
        n=20,
        repeats=2,
        seed=0,
    )


class TestRunComparison:
    def test_all_mechanisms_present(self, cells):
        assert {c.mechanism for c in cells} == {"cluster", "noe", "nou", "lrm", "gs"}

    def test_figure4_shape_cluster_beats_all(self, cells):
        """The paper's headline: the cluster framework outperforms every
        other mechanism at both privacy levels."""
        for eps in (1.0, 0.1):
            scores = {c.mechanism: c.ndcg_mean for c in cells if c.epsilon == eps}
            for other in ("noe", "nou", "lrm", "gs"):
                assert scores["cluster"] > scores[other], (eps, other)

    def test_figure4_shape_noe_beats_nou(self, cells):
        """Second observation: NOE beats NOU at the weaker privacy level."""
        scores = {c.mechanism: c.ndcg_mean for c in cells if c.epsilon == 1.0}
        assert scores["noe"] > scores["nou"]

    def test_scores_in_unit_interval(self, cells):
        assert all(0.0 <= c.ndcg_mean <= 1.0 for c in cells)

    def test_mechanism_subset(self, lastfm_small):
        cells = run_comparison(
            lastfm_small,
            measures=[CommonNeighbors()],
            epsilons=(1.0,),
            n=10,
            mechanisms=("cluster", "noe"),
            repeats=1,
        )
        assert {c.mechanism for c in cells} == {"cluster", "noe"}

    def test_unknown_mechanism_rejected(self, lastfm_small):
        with pytest.raises(ExperimentError):
            run_comparison(
                lastfm_small,
                measures=[CommonNeighbors()],
                mechanisms=("nonsense",),
                repeats=1,
            )

    def test_empty_measures_rejected(self, lastfm_small):
        with pytest.raises(ExperimentError):
            run_comparison(lastfm_small, measures=[])


class TestSharedFitState:
    def test_one_kernel_and_one_svd_per_measure(self, lastfm_small):
        """Every fit of one measure shares its evaluation context's cache."""
        with telemetry(Telemetry(trace=False)) as registry:
            cells = run_comparison(
                lastfm_small,
                measures=[CommonNeighbors(), AdamicAdar()],
                epsilons=(1.0, 0.1),
                n=10,
                repeats=2,
                seed=0,
            )
        assert len(cells) == 2 * 5 * 2
        assert registry.counter("compute.builds") == 2
        assert registry.counter("similarity.workload_svds") == 2


class TestFormatting:
    def test_table_lists_mechanisms(self, cells):
        text = format_comparison_table(cells)
        for mech in ("cluster", "noe", "nou", "lrm", "gs"):
            assert mech in text

    def test_empty_cells_rejected(self):
        with pytest.raises(ExperimentError):
            format_comparison_table([])
