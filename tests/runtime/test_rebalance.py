"""Tests for dynamic subgraph rebalancing (Section IV-D research opportunity)."""

import numpy as np
import pytest

from repro.algorithms import TDSPComputation, tdsp_labels_from_result
from repro.algorithms.reference import time_expanded_dijkstra
from repro.core import EngineConfig, run_application
from repro.generators import road_latency_collection
from repro.observability import RunRecorder
from repro.partition import HashPartitioner, partition_graph
from repro.runtime import CostModel, GreedyRebalancer, Migration, apply_migrations
from repro.runtime.metrics import MetricsCollector
from repro.runtime.rebalance import _state_nbytes
from tests.conftest import make_grid_template


class TestGreedyPolicy:
    def make_subgraph_lists(self):
        # partition 0: one big + two small; partition 1: one medium.
        return [[(0, 100), (1, 5), (2, 8)], [(3, 40)]]

    def test_no_moves_when_balanced(self):
        policy = GreedyRebalancer(imbalance_threshold=1.5)
        moves = policy.decide(np.array([1.0, 1.1]), self.make_subgraph_lists())
        assert moves == []
        assert policy.history == [[]]

    def test_moves_small_subgraphs_from_busiest(self):
        policy = GreedyRebalancer(imbalance_threshold=1.2, max_moves_per_timestep=2)
        moves = policy.decide(np.array([10.0, 1.0]), self.make_subgraph_lists())
        assert [m.subgraph_id for m in moves] == [1, 2]  # smallest first
        assert all(m.source_partition == 0 and m.target_partition == 1 for m in moves)

    def test_never_moves_dominant_subgraph(self):
        policy = GreedyRebalancer(imbalance_threshold=1.2, max_moves_per_timestep=5)
        moves = policy.decide(np.array([10.0, 1.0]), self.make_subgraph_lists())
        assert 0 not in [m.subgraph_id for m in moves]

    def test_keeps_at_least_one_subgraph(self):
        policy = GreedyRebalancer(imbalance_threshold=1.2, max_moves_per_timestep=5)
        moves = policy.decide(np.array([10.0, 1.0]), [[(7, 3)], [(8, 50)]])
        assert moves == []  # the only subgraph stays


class TestApplyMigrations:
    def test_moves_state_and_updates_routing(self):
        from repro.core import Pattern, TimeSeriesComputation
        from repro.graph import build_collection
        from repro.runtime import LocalCluster, RunMeta

        tpl = make_grid_template(4, 4)
        coll = build_collection(tpl, 1)
        pg = partition_graph(tpl, 2, HashPartitioner(seed=1))

        class Noop(TimeSeriesComputation):
            def compute(self, ctx):
                ctx.vote_to_halt()

        meta = RunMeta(Pattern.SEQUENTIALLY_DEPENDENT, 1, 1.0, 0.0)
        cluster = LocalCluster(pg, Noop(), meta, collection=coll)
        sg = cluster.hosts[0].partition.subgraphs[0]
        sgid = sg.subgraph_id
        cluster.hosts[0].states[sgid]["marker"] = 42
        routing = cluster.hosts[0].subgraph_partition
        cost = apply_migrations(
            cluster, [Migration(sgid, 0, 1)], routing, CostModel(),
            RunRecorder(MetricsCollector(2)),
        )
        assert cost > 0
        assert sgid in cluster.hosts[1].states
        assert cluster.hosts[1].states[sgid]["marker"] == 42
        assert sgid not in cluster.hosts[0].states
        assert routing[sgid] == 1
        # Both hosts see the same routing array.
        assert cluster.hosts[1].subgraph_partition[sgid] == 1

    def test_unknown_subgraph_raises(self):
        from repro.core import Pattern, TimeSeriesComputation
        from repro.graph import build_collection
        from repro.runtime import LocalCluster, RunMeta

        tpl = make_grid_template(3, 3)
        coll = build_collection(tpl, 1)
        pg = partition_graph(tpl, 2, HashPartitioner(seed=1))

        class Noop(TimeSeriesComputation):
            def compute(self, ctx):
                ctx.vote_to_halt()

        cluster = LocalCluster(
            pg, Noop(), RunMeta(Pattern.INDEPENDENT, 1, 1.0, 0.0), collection=coll
        )
        with pytest.raises(KeyError):
            apply_migrations(
                cluster,
                [Migration(99, 0, 1)],
                cluster.hosts[0].subgraph_partition,
                CostModel(),
                RunRecorder(MetricsCollector(2)),
            )

    def test_state_nbytes(self):
        assert _state_nbytes({"a": np.zeros(10)}) == 80
        assert _state_nbytes({"b": [1, 2, 3]}) == 96
        assert _state_nbytes({"c": 5}) == 16


class ScriptedPolicy:
    """Rebalance policy that emits a fixed move list once, then nothing."""

    def __init__(self, moves):
        self._pending = list(moves)
        self.history = []

    def decide(self, busy, partition_subgraphs):
        moves, self._pending = self._pending, []
        self.history.append(moves)
        return moves


class TestTemporalRoutingAfterMigration:
    def test_remote_temporal_message_follows_migrated_subgraph(self):
        """A buffered temporal frame must be re-routed after migrations.

        Regression: frames carried the destination partition computed at
        pack time (the previous timestep); when the rebalancer migrated the
        destination subgraph between timesteps, the driver shipped the frame
        to the old host, which silently dropped it.
        """
        from repro.core import Pattern, TimeSeriesComputation
        from repro.graph import build_collection

        tpl = make_grid_template(4, 4)
        coll = build_collection(tpl, 2)
        pg = partition_graph(tpl, 2, HashPartitioner(seed=1))
        by_part = {}
        for sg in pg.subgraphs:
            by_part.setdefault(sg.partition_id, []).append(sg.subgraph_id)
        # src on partition 0 pings dst on partition 1 across the timestep
        # boundary; the policy migrates dst onto partition 0 at that boundary.
        src, dst = by_part[0][0], by_part[1][0]

        class CrossPing(TimeSeriesComputation):
            pattern = Pattern.SEQUENTIALLY_DEPENDENT

            def compute(self, ctx):
                got = [m.payload for m in ctx.messages]
                if got:
                    ctx.state.setdefault("got", []).extend(got)
                if ctx.subgraph.subgraph_id == src:
                    ctx.send_to_subgraph_in_next_timestep(dst, ("ping", ctx.timestep))
                ctx.vote_to_halt()

        policy = ScriptedPolicy([Migration(dst, 1, 0)])
        res = run_application(
            CrossPing(), pg, coll, config=EngineConfig(rebalancer=policy)
        )
        assert policy.history and policy.history[0], "the migration must happen"
        assert res.states[dst].get("got") == [("ping", 0)]


class TestEndToEnd:
    def test_rebalanced_tdsp_correct(self):
        from repro.generators import road_network

        tpl = road_network(1500, seed=4)
        coll = road_latency_collection(tpl, 15, seed=4)
        pg = partition_graph(tpl, 3)
        policy = GreedyRebalancer(imbalance_threshold=1.2)
        res = run_application(
            TDSPComputation(0, root_pruning=False),
            pg,
            coll,
            config=EngineConfig(rebalancer=policy),
        )
        got = tdsp_labels_from_result(res, tpl.num_vertices)
        want = time_expanded_dijkstra(coll, 0)
        np.testing.assert_allclose(
            np.nan_to_num(got, posinf=1e18), np.nan_to_num(want, posinf=1e18)
        )
        # The policy was consulted once per timestep boundary.
        assert len(policy.history) == res.timesteps_executed - 1
        # Migrations recorded in metrics with their transfer cost.
        moved = sum(len(m) for m in policy.history)
        assert sum(res.metrics.migrations.values()) == moved
        if moved:
            assert sum(res.metrics.migration_s.values()) > 0

    def test_tdsp_migrated_mid_wave_is_bit_identical(self):
        """TDSP's band bookkeeping — the run-long ``label`` array, the roots,
        the unfinalized count — is subgraph state, so a subgraph moved
        between two timesteps while the wave is inside it carries on to the
        same bytes as if it had stayed."""
        from repro.generators import road_network
        from repro.partition import MetisLikePartitioner
        from tests.core.test_executor_equivalence import _canonical

        tpl = road_network(1500, seed=3)
        coll = road_latency_collection(tpl, 20, seed=3)
        pg = partition_graph(tpl, 4, MetisLikePartitioner(seed=3))
        baseline = run_application(TDSPComputation(0), pg, coll)
        active = {}
        for t, sgid, _rec in baseline.outputs:
            active.setdefault(sgid, []).append(t)
        # A subgraph the wave is inside across the boundary after timestep 5.
        moved = next(s for s, ts in sorted(active.items()) if min(ts) < 5 < max(ts))
        home = pg.subgraphs[moved].partition_id

        class MoveAfterTimestep5(ScriptedPolicy):
            def decide(self, busy, partition_subgraphs):
                self.history.append([])
                if len(self.history) == 6:
                    self.history[-1] = self._pending
                return self.history[-1]

        policy = MoveAfterTimestep5([Migration(moved, home, (home + 1) % 4)])
        res = run_application(
            TDSPComputation(0), pg, coll, config=EngineConfig(rebalancer=policy)
        )
        assert sum(res.metrics.migrations.values()) == 1
        by_key = lambda out: (out[0], out[1])  # a timestep emits in partition order
        assert _canonical(sorted(res.outputs, key=by_key)) == _canonical(
            sorted(baseline.outputs, key=by_key)
        )
        assert _canonical(res.states) == _canonical(baseline.states)
        got = tdsp_labels_from_result(res, tpl.num_vertices)
        assert got.tobytes() == time_expanded_dijkstra(coll, 0).tobytes()

    def test_source_partition_not_mutated(self):
        from repro.generators import road_network

        tpl = road_network(800, seed=5)
        coll = road_latency_collection(tpl, 10, seed=5)
        pg = partition_graph(tpl, 3)
        before = [p.num_subgraphs for p in pg.partitions]
        run_application(
            TDSPComputation(0, root_pruning=False),
            pg,
            coll,
            config=EngineConfig(rebalancer=GreedyRebalancer(imbalance_threshold=1.1)),
        )
        assert [p.num_subgraphs for p in pg.partitions] == before

    def test_process_executor_rejected(self):
        from repro.generators import road_network
        from repro.runtime import CollectionInstanceSource

        tpl = road_network(400, seed=6)
        coll = road_latency_collection(tpl, 4, seed=6)
        pg = partition_graph(tpl, 2)
        config = EngineConfig(
            executor="process", rebalancer=GreedyRebalancer(imbalance_threshold=0.5)
        )
        sources = [CollectionInstanceSource(coll) for _ in range(2)]
        with pytest.raises(NotImplementedError, match="in-process"):
            run_application(TDSPComputation(0), pg, coll, config=config, sources=sources)

    def test_gofs_sources_rejected(self, tmp_path):
        """Partitioned GoFS views would break migrated subgraphs — refuse."""
        from repro.generators import road_network
        from repro.storage import GoFS

        tpl = road_network(400, seed=7)
        coll = road_latency_collection(tpl, 4, seed=7)
        pg = partition_graph(tpl, 2)
        GoFS.write_collection(tmp_path, pg, coll)
        config = EngineConfig(rebalancer=GreedyRebalancer(imbalance_threshold=1.0))
        with pytest.raises(NotImplementedError, match="whole-instance"):
            run_application(
                TDSPComputation(0, root_pruning=False),
                pg,
                coll,
                sources=GoFS.partition_views(tmp_path),
                config=config,
            )
