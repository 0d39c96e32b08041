"""Tests for JSON export of run artifacts."""

import json

import numpy as np
import pytest

from repro.analysis import result_summary, write_result_json
from repro.algorithms import TDSPComputation
from repro.core import AppResult, run_application
from repro.generators import road_latency_collection
from repro.partition import HashPartitioner, partition_graph
from tests.conftest import make_grid_template


@pytest.fixture
def run():
    tpl = make_grid_template(4, 6)
    coll = road_latency_collection(tpl, 5, seed=3)
    pg = partition_graph(tpl, 2, HashPartitioner(seed=1))
    return run_application(TDSPComputation(0), pg, coll)


class TestPlain:
    def test_the_event_log_and_the_export_coerce_alike(self, tmp_path):
        """One coercion: a numpy scalar is its Python value, an array and a
        tuple become lists, mapping keys become strings."""
        from repro.observability.events import normalize_event

        value = {"a": np.arange(3), "b": (np.float64(1.5), np.int64(2)), 3: np.bool_(True)}
        want = {"a": [0, 1, 2], "b": [1.5, 2], "3": True}
        record = normalize_event({"kind": "k", "ts_ns": 0, "pid": 0, "v": value}, 0)
        assert record["v"] == want
        assert json.loads(json.dumps(record))["v"] == want
        path = write_result_json(tmp_path / "r.json", AppResult(), v=value)
        assert json.loads(path.read_text())["v"] == want


class TestResultSummary:
    def test_fields(self, run):
        s = result_summary(run)
        assert s["timesteps_executed"] == run.timesteps_executed
        assert s["num_outputs"] == len(run.outputs)
        assert len(s["timestep_series_s"]) == run.timesteps_executed
        assert len(s["partitions"]) == 2
        assert s["metrics"]["supersteps"] > 0

    def test_json_serializable(self, run, tmp_path):
        path = write_result_json(tmp_path / "r.json", run, label="tdsp-test")
        data = json.loads(path.read_text())
        assert data["label"] == "tdsp-test"
        assert data["timesteps_executed"] == run.timesteps_executed
        # Round-trips cleanly (all plain types).
        json.dumps(data)

    def test_no_metrics(self):
        from repro.core import AppResult

        s = result_summary(AppResult(timesteps_executed=2))
        assert "metrics" not in s
        assert s["timesteps_executed"] == 2
