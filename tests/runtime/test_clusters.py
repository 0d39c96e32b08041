"""Tests for hosts and the cluster (serial / process placement)."""

import numpy as np
import pytest

from repro.core import EngineConfig, Pattern, TimeSeriesComputation, run_application
from repro.generators import make_collection, road_latency_collection
from repro.graph import build_collection
from repro.partition import HashPartitioner, partition_graph
from repro.runtime import Cluster, CollectionInstanceSource, CostModel, RunMeta
from repro.resilience import AT_EOT
from tests.conftest import make_grid_template


class EchoState(TimeSeriesComputation):
    """Deterministic computation used across all backends."""

    pattern = Pattern.SEQUENTIALLY_DEPENDENT

    def compute(self, ctx):
        if ctx.superstep == 0:
            carried = sum(m.payload for m in ctx.messages) if ctx.messages else 0
            ctx.state["total"] = carried + int(
                ctx.instance.edge_column("latency")[ctx.subgraph.edge_index].sum()
            )
            # Ping a neighbor subgraph to exercise superstep messaging.
            nbrs = ctx.subgraph.neighbor_subgraphs
            if len(nbrs):
                ctx.send_to_subgraph(int(nbrs[0]), 0)
        ctx.vote_to_halt()

    def end_of_timestep(self, ctx):
        ctx.send_to_next_timestep(ctx.state["total"])
        if ctx.timestep == ctx.num_timesteps - 1:
            ctx.output(ctx.state["total"])


def run_backend(executor):
    tpl = make_grid_template(4, 6)
    coll = road_latency_collection(tpl, 5, seed=9, delta=5.0)
    pg = partition_graph(tpl, 3, HashPartitioner(seed=1))
    res = run_application(EchoState(), pg, coll, config=EngineConfig(executor=executor))
    return {sg: rec for _t, sg, rec in res.outputs}


class TestBackendEquivalence:
    def test_process_matches_serial(self):
        assert run_backend("process") == run_backend("serial")


class TestLocalCluster:
    """The cluster with every partition in the driver (serial placement)."""

    def make(self, sources=None, **kwargs):
        tpl = make_grid_template(3, 4)
        coll = build_collection(tpl, 2)
        pg = partition_graph(tpl, 2, HashPartitioner(seed=1))
        meta = RunMeta(Pattern.SEQUENTIALLY_DEPENDENT, 2, 1.0, 0.0)

        class Noop(TimeSeriesComputation):
            def compute(self, ctx):
                ctx.vote_to_halt()

        sources = sources or [CollectionInstanceSource(coll) for _ in range(2)]
        return Cluster(pg, Noop(), meta, sources, **kwargs), pg

    def test_unknown_executor(self):
        """The cluster is told where agents run, not an executor name; the
        name is the engine's, which rejects one it does not know."""
        with pytest.raises(TypeError, match="executor"):
            self.make(executor="warp")
        tpl = make_grid_template(3, 4)
        pg = partition_graph(tpl, 2, HashPartitioner(seed=1))
        with pytest.raises(ValueError, match="serial, process, socket"):
            run_application(
                EchoState(), pg, build_collection(tpl, 2), config=EngineConfig(executor="warp")
            )

    def test_context_manager_shutdown(self, tmp_path):
        """Leaving the ``with`` block shuts the cluster down."""
        from repro.storage import GoFS

        tpl = make_grid_template(3, 4)
        pg = partition_graph(tpl, 2, HashPartitioner(seed=1))
        GoFS.write_collection(tmp_path, pg, build_collection(tpl, 2), packing=1)
        cluster, _ = self.make(GoFS.partition_views(tmp_path))
        with cluster as c:
            assert c is cluster
            # A view reads what its computation asks for: the cluster has no
            # prefetch call and no such op.
            c.run_round("superstep", 0, 0, [[], []])
            with pytest.raises(AttributeError):
                c.prefetch(1)
            with pytest.raises(ValueError, match="unknown protocol op 'prefetch'"):
                c.run_round("prefetch", 0, 0, [1, 1])
        assert cluster._channels == []

    def test_protocol_flow(self):
        cluster, pg = self.make()
        step = cluster.run_round("superstep", 0, 0, [[], []])
        assert {r.partition for r in step} == {0, 1}
        assert all(r.all_halted for r in step)
        assert sum(r.subgraphs_computed for r in step) == pg.num_subgraphs
        eot = cluster.run_round("eot", 0, AT_EOT, None)
        assert len(eot) == 2
        assert len(cluster.run_round("resident", -1, -1, None)) == 2
        states = cluster.run_round("states", -1, -1, None)
        assert set().union(*states) == {sg.subgraph_id for sg in pg.subgraphs}


class TestBuildHosts:
    def test_source_count_validated(self):
        tpl = make_grid_template(3, 3)
        pg = partition_graph(tpl, 2, HashPartitioner(seed=1))
        coll = build_collection(tpl, 1)
        meta = RunMeta(Pattern.INDEPENDENT, 1, 1.0, 0.0)

        class Noop(TimeSeriesComputation):
            def compute(self, ctx):
                ctx.vote_to_halt()

        with pytest.raises(ValueError, match="one instance source per partition"):
            Cluster(pg, Noop(), meta, [CollectionInstanceSource(coll)])


class TestHostAccounting:
    def test_remote_vs_local_send_costs(self):
        """Messages between partitions must cost more than local ones."""
        tpl = make_grid_template(4, 4)
        coll = build_collection(tpl, 1)
        pg = partition_graph(tpl, 2, HashPartitioner(seed=1))
        # Find one subgraph with a remote neighbor and one local pair.
        sg = next(s for s in pg.subgraphs if len(s.neighbor_subgraphs))

        class SendRemote(TimeSeriesComputation):
            pattern = Pattern.INDEPENDENT

            def compute(self, ctx):
                if ctx.superstep == 0 and ctx.subgraph.subgraph_id == sg.subgraph_id:
                    for nbr in ctx.subgraph.neighbor_subgraphs:
                        ctx.send_to_subgraph(int(nbr), np.zeros(100))
                ctx.vote_to_halt()

        cost = CostModel(remote_per_message_s=1e-3, local_per_message_s=1e-9)
        res = run_application(
            SendRemote(), pg, coll, config=EngineConfig(cost_model=cost)
        )
        sends = [r for r in res.metrics.step_records if r.messages_sent]
        assert sends, "expected at least one send record"
        remote_sends = [r for r in sends if r.bytes_sent > 0]
        assert remote_sends
        assert all(r.send_s >= 1e-3 for r in remote_sends)


class TestMergeProtocol:
    def test_merge_superstep0_rejects_deliveries(self):
        """Superstep 0 reads the merge inbox; stray deliveries must fail loudly."""
        from repro.core.messages import Message, MessageFrame

        tpl = make_grid_template(3, 3)
        coll = build_collection(tpl, 1)
        pg = partition_graph(tpl, 2, HashPartitioner(seed=1))

        class Noop(TimeSeriesComputation):
            pattern = Pattern.EVENTUALLY_DEPENDENT

            def compute(self, ctx):
                ctx.vote_to_halt()

            def merge(self, ctx):
                ctx.vote_to_halt()

        meta = RunMeta(Pattern.EVENTUALLY_DEPENDENT, 1, 1.0, 0.0)
        cluster = Cluster(pg, Noop(), meta, [CollectionInstanceSource(coll) for _ in range(2)])
        host = cluster._channels[0].agent.host
        sgid = host.partition.subgraphs[0].subgraph_id
        with pytest.raises(RuntimeError, match="merge superstep 0"):
            host.run_merge_superstep(0, [MessageFrame.pack(1, 0, [(sgid, Message("stray"))])])
