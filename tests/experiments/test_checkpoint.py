"""Unit and resume tests for the sweep checkpoint."""

import json
import math
import os

import pytest

from repro.community.strategies import single_cluster_clustering
from repro.datasets.synthetic import SyntheticDatasetSpec
from repro.exceptions import ExperimentError
from repro.experiments.checkpoint import (
    SweepCheckpoint,
    decode_epsilon,
    encode_epsilon,
    fsync_directory,
)
from repro.obs import Telemetry, telemetry
from repro.experiments.tradeoff import run_tradeoff
from repro.resilience import FaultPlan, FaultSpec
from repro.similarity.common_neighbors import CommonNeighbors


class TestEpsilonEncoding:
    def test_inf_round_trips(self):
        assert decode_epsilon(encode_epsilon(math.inf)) == math.inf

    def test_finite_round_trips_exactly(self):
        for epsilon in (1.0, 0.6, 0.1, 0.05, 1e-9):
            assert decode_epsilon(encode_epsilon(epsilon)) == epsilon


class TestSweepCheckpoint:
    def test_record_then_get(self, tmp_path):
        ckpt = SweepCheckpoint(str(tmp_path / "sweep.jsonl"))
        ckpt.record(("a", "1"), {"mean": 0.5})
        assert ckpt.get(("a", "1")) == {"mean": 0.5}
        assert ("a", "1") in ckpt
        assert ("a", "2") not in ckpt
        assert len(ckpt) == 1

    def test_missing_cell_is_none(self, tmp_path):
        ckpt = SweepCheckpoint(str(tmp_path / "sweep.jsonl"))
        assert ckpt.get(("nope",)) is None

    def test_persists_across_instances(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        first = SweepCheckpoint(path)
        first.record(("a",), {"mean": 0.1})
        first.record(("b",), {"mean": 0.2})
        resumed = SweepCheckpoint(path)
        assert len(resumed) == 2
        assert resumed.get(("b",)) == {"mean": 0.2}

    def test_key_parts_coerced_to_str(self, tmp_path):
        ckpt = SweepCheckpoint(str(tmp_path / "sweep.jsonl"))
        ckpt.record(("a", 1), {"mean": 0.5})
        assert ckpt.get(("a", "1")) == {"mean": 0.5}

    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        good = json.dumps({"key": ["a"], "payload": {"mean": 0.1}})
        path.write_text(good + "\n" + '{"key": ["b"], "pay')  # kill mid-append
        ckpt = SweepCheckpoint(str(path))
        assert len(ckpt) == 1
        assert ckpt.get(("a",)) == {"mean": 0.1}

    def test_corrupt_interior_line_rejected(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        good = json.dumps({"key": ["a"], "payload": {}})
        path.write_text(good + "\nnot json at all\n" + good + "\n")
        with pytest.raises(ExperimentError, match="line 2"):
            SweepCheckpoint(str(path))

    def test_clear_removes_file_and_cells(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        ckpt = SweepCheckpoint(path)
        ckpt.record(("a",), {})
        ckpt.clear()
        assert len(ckpt) == 0
        assert not os.path.exists(path)

    def test_duplicate_records_counted_last_wins(self, tmp_path):
        """Concurrent workers can both finish a cell (lease reclaim race);
        the loader keeps the last record and surfaces the duplicate."""
        path = tmp_path / "sweep.jsonl"
        lines = [
            json.dumps({"key": ["a"], "payload": {"mean": 0.1}}),
            json.dumps({"key": ["b"], "payload": {"mean": 0.2}}),
            json.dumps({"key": ["a"], "payload": {"mean": 0.1}}),
        ]
        path.write_text("\n".join(lines) + "\n")
        registry = Telemetry()
        with telemetry(registry):
            ckpt = SweepCheckpoint(str(path))
        assert len(ckpt) == 2
        assert ckpt.duplicate_cells == 1
        assert registry.snapshot().counters["checkpoint.duplicate_cells"] == 1

    def test_torn_final_line_with_duplicates(self, tmp_path):
        """A kill mid-append on a queue shared by racing workers: torn
        tail dropped, earlier duplicate still counted, data intact."""
        path = tmp_path / "sweep.jsonl"
        good = json.dumps({"key": ["a"], "payload": {"mean": 0.1}})
        path.write_text(
            good + "\n" + good + "\n" + '{"key": ["b"], "pay'
        )
        ckpt = SweepCheckpoint(str(path))
        assert len(ckpt) == 1
        assert ckpt.duplicate_cells == 1
        assert ckpt.get(("a",)) == {"mean": 0.1}
        assert ckpt.get(("b",)) is None

    def test_fsync_directory_tolerates_odd_paths(self, tmp_path):
        fsync_directory(str(tmp_path))
        fsync_directory("")  # empty dirname (relative checkpoint path)
        fsync_directory(str(tmp_path / "does-not-exist"))

    def test_first_record_creates_durable_file(self, tmp_path):
        """The dir-fsync branch runs on the append that creates the file
        (and only then) without disturbing the record itself."""
        path = str(tmp_path / "nested" / "sweep.jsonl")
        os.makedirs(os.path.dirname(path))
        ckpt = SweepCheckpoint(path)
        ckpt.record(("a",), {"mean": 0.1})
        ckpt.record(("b",), {"mean": 0.2})
        assert len(SweepCheckpoint(path)) == 2


@pytest.fixture(scope="module")
def tiny_dataset():
    return SyntheticDatasetSpec.lastfm_like(scale=0.04).generate(seed=1)


@pytest.fixture(scope="module")
def tiny_clustering(tiny_dataset):
    return single_cluster_clustering(tiny_dataset.social.users())


def sweep(tiny_dataset, tiny_clustering, checkpoint=None, seed=3):
    return run_tradeoff(
        tiny_dataset,
        [CommonNeighbors()],
        epsilons=[math.inf, 1.0, 0.5],
        ns=[5],
        repeats=2,
        clustering=tiny_clustering,
        seed=seed,
        checkpoint=checkpoint,
    )


class TestResume:
    def test_interrupted_sweep_resumes_identically(
        self, tiny_dataset, tiny_clustering, tmp_path
    ):
        """The acceptance criterion: kill a sweep partway, rerun it with
        the same checkpoint, and get bit-identical cells."""
        baseline = sweep(tiny_dataset, tiny_clustering)

        path = str(tmp_path / "sweep.jsonl")
        crash = FaultPlan([FaultSpec(site="tradeoff.cell", on_call=2)])
        with crash.installed():
            with pytest.raises(OSError):
                sweep(tiny_dataset, tiny_clustering, checkpoint=path)
        assert len(SweepCheckpoint(path)) == 1  # first cell survived the kill

        resumed = sweep(tiny_dataset, tiny_clustering, checkpoint=path)
        assert resumed == baseline
        assert len(SweepCheckpoint(path)) == 3

    def test_completed_sweep_recomputes_nothing(
        self, tiny_dataset, tiny_clustering, tmp_path
    ):
        path = str(tmp_path / "sweep.jsonl")
        baseline = sweep(tiny_dataset, tiny_clustering, checkpoint=path)
        # a raise-on-first-cell fault proves no cell is ever recomputed
        tripwire = FaultPlan([FaultSpec(site="tradeoff.cell", on_call=1)])
        with tripwire.installed():
            rerun = sweep(tiny_dataset, tiny_clustering, checkpoint=path)
        assert tripwire.calls_to("tradeoff.cell") == 0
        assert rerun == baseline

    def test_checkpoint_not_shared_across_seeds(
        self, tiny_dataset, tiny_clustering, tmp_path
    ):
        """Cell keys embed every value-affecting input: a sweep with a
        different master seed must not reuse another seed's cells."""
        path = str(tmp_path / "sweep.jsonl")
        sweep(tiny_dataset, tiny_clustering, checkpoint=path, seed=3)
        counter = FaultPlan()
        with counter.installed():
            sweep(tiny_dataset, tiny_clustering, checkpoint=path, seed=4)
        assert counter.calls_to("tradeoff.cell") == 3  # all recomputed

    def test_checkpoint_accepts_instance(self, tiny_dataset, tiny_clustering, tmp_path):
        ckpt = SweepCheckpoint(str(tmp_path / "sweep.jsonl"))
        cells = sweep(tiny_dataset, tiny_clustering, checkpoint=ckpt)
        assert len(ckpt) == 3
        assert cells == sweep(tiny_dataset, tiny_clustering)
