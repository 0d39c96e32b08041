"""Tests for the communication cost model and the GC pause model."""

import pytest

from repro.runtime import CostModel, GCModel


class TestCostModel:
    def test_remote_send_cost(self):
        cm = CostModel(remote_bandwidth_bytes_per_s=1000.0, remote_per_message_s=0.01)
        assert cm.remote_send_cost(0, 0) == 0.0
        assert cm.remote_send_cost(2, 500) == pytest.approx(2 * 0.01 + 0.5)

    def test_local_send_cost(self):
        cm = CostModel(local_per_message_s=0.001)
        assert cm.local_send_cost(5) == pytest.approx(0.005)
        assert cm.local_send_cost(0) == 0.0

    def test_barrier_cost(self):
        cm = CostModel(barrier_s=0.002)
        assert cm.barrier_cost(1) == 0.0  # no barrier on one host
        assert cm.barrier_cost(4) == 0.002

    def test_free_model(self):
        cm = CostModel.free()
        assert cm.remote_send_cost(1000, 10**9) == 0.0
        assert cm.local_send_cost(1000) == 0.0
        assert cm.barrier_cost(8) == 0.0

    def test_defaults_sane(self):
        cm = CostModel()
        # A single small remote message costs about the envelope overhead.
        assert 0 < cm.remote_send_cost(1, 16) < 1e-3
        # A 100 MiB transfer takes on the order of a second on 1 GbE.
        assert 0.5 < cm.remote_send_cost(1, 100 * 2**20) < 2.0


class TestGCModel:
    def test_disabled(self):
        gc = GCModel.disabled()
        assert not gc.enabled
        assert gc.pause_at(20, 2**30) == 0.0

    def test_interval_trigger(self):
        gc = GCModel(interval=20, pause_per_gib_s=1.0, min_pause_s=0.01)
        assert gc.pause_at(0, 2**30) == 0.0  # never at timestep 0
        assert gc.pause_at(19, 2**30) == 0.0
        assert gc.pause_at(20, 2**30) == pytest.approx(1.0)
        assert gc.pause_at(40, 2**30) == pytest.approx(1.0)
        assert gc.pause_at(21, 2**30) == 0.0

    def test_memory_pressure_scaling(self):
        """Fewer partitions → more resident data → longer pause (Fig 6)."""
        gc = GCModel(interval=20, pause_per_gib_s=2.0, min_pause_s=0.0)
        pause_3_parts = gc.pause_at(20, 3 * 2**30)  # data/3 hosts, say 3 GiB each
        pause_9_parts = gc.pause_at(20, 2**30)
        assert pause_3_parts > pause_9_parts

    def test_min_pause_floor(self):
        gc = GCModel(interval=10, pause_per_gib_s=1.0, min_pause_s=0.5)
        assert gc.pause_at(10, 1024) == 0.5


class TestGcRecords:
    def test_one_record_per_pause_the_driver_computed(self):
        """The engine states one ``gc_pause`` record per (timestep, partition)
        from the pauses it computes off the ``resident`` query: every third
        timestep, on each of the four partitions.  The seconds are pinned:
        the same as when hosts echoed the pause back."""
        from repro.algorithms import TDSPComputation
        from repro.core import EngineConfig, run_application
        from repro.generators import paper_datasets
        from repro.partition import MetisLikePartitioner, partition_graph

        data = paper_datasets(2000, 10)["CARN"]
        pg = partition_graph(data["template"], 4, MetisLikePartitioner(seed=0))
        gc = GCModel(interval=3, pause_per_gib_s=50.0, min_pause_s=0.001)
        res = run_application(
            TDSPComputation(0), pg, data["road"],
            config=EngineConfig(gc_model=gc, tracing=True),
        )
        expected = {(t, p) for t in (3, 6, 9) for p in range(4)}
        assert set(res.metrics.gc_s) == expected
        assert all(s == pytest.approx(0.001031905, abs=1e-9) for s in res.metrics.gc_s.values())
        records = [
            (e["timestep"], e["partition"])
            for e in res.trace.event_records() if e["kind"] == "gc_pause"
        ]
        assert sorted(records) == sorted(expected)
