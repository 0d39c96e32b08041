"""Behavioral tests for the TI-BSP engine: the Section II-D semantics."""

import numpy as np
import pytest

from repro.core import (
    EngineConfig,
    Pattern,
    TIBSPEngine,
    TimeSeriesComputation,
    run_application,
)
from repro.core.messages import MessageKind
from repro.graph import build_collection
from repro.partition import HashPartitioner, partition_graph
from repro.runtime import CostModel
from tests.conftest import make_grid_template


@pytest.fixture
def setup():
    tpl = make_grid_template(4, 5)
    coll = build_collection(tpl, 4, delta=2.0)
    pg = partition_graph(tpl, 3, HashPartitioner(seed=1))
    return tpl, coll, pg


class Recorder(TimeSeriesComputation):
    """Records every compute invocation for post-hoc assertions."""

    pattern = Pattern.SEQUENTIALLY_DEPENDENT

    def __init__(self):
        self.calls = []  # (timestep, superstep, sgid, [payloads], [kinds])

    def compute(self, ctx):
        self.calls.append(
            (
                ctx.timestep,
                ctx.superstep,
                ctx.subgraph.subgraph_id,
                [m.payload for m in ctx.messages],
                [m.kind for m in ctx.messages],
            )
        )
        ctx.vote_to_halt()


class TestBasicScheduling:
    def test_all_subgraphs_invoked_every_timestep(self, setup):
        _, coll, pg = setup
        rec = Recorder()
        run_application(rec, pg, coll)
        for t in range(4):
            invoked = {c[2] for c in rec.calls if c[0] == t and c[1] == 0}
            assert invoked == {sg.subgraph_id for sg in pg.subgraphs}

    def test_timesteps_strictly_ordered(self, setup):
        _, coll, pg = setup
        rec = Recorder()
        run_application(rec, pg, coll)
        timesteps = [c[0] for c in rec.calls]
        assert timesteps == sorted(timesteps)

    def test_halted_subgraphs_not_reinvoked(self, setup):
        _, coll, pg = setup
        rec = Recorder()
        res = run_application(rec, pg, coll)
        # Everyone halts at superstep 0 with no messages → exactly one
        # superstep per timestep.
        assert all(c[1] == 0 for c in rec.calls)
        assert res.timesteps_executed == 4

    def test_timestep_range(self, setup):
        _, coll, pg = setup
        rec = Recorder()
        res = run_application(rec, pg, coll, timestep_range=(1, 3))
        assert {c[0] for c in rec.calls} == {1, 2}
        assert res.timesteps_executed == 2

    def test_bad_timestep_range(self, setup):
        _, coll, pg = setup
        with pytest.raises(ValueError):
            run_application(Recorder(), pg, coll, timestep_range=(0, 99))


class TestMessaging:
    def test_superstep_message_delivered_next_superstep(self, setup):
        _, coll, pg = setup
        target = pg.subgraphs[-1].subgraph_id

        class Pinger(Recorder):
            def compute(s, ctx):
                super(Pinger, s).compute(ctx)
                if ctx.superstep == 0 and ctx.subgraph.subgraph_id == 0:
                    ctx.send_to_subgraph(target, ("ping", ctx.timestep))

        rec = Pinger()
        run_application(rec, pg, coll, timestep_range=(0, 1))
        received = [c for c in rec.calls if c[2] == target and c[3]]
        assert len(received) == 1
        t, s, _, payloads, kinds = received[0]
        assert s == 1  # next superstep
        assert payloads == [("ping", 0)]
        assert kinds == [MessageKind.SUPERSTEP]

    def test_reactivation_of_halted_subgraph(self, setup):
        """A halted subgraph computes again when a message arrives."""
        _, coll, pg = setup
        target = pg.subgraphs[-1].subgraph_id

        class LatePing(Recorder):
            def compute(s, ctx):
                super(LatePing, s).compute(ctx)
                if ctx.subgraph.subgraph_id == 0 and ctx.superstep < 2:
                    ctx.send_to_subgraph(0, "self")  # keep 0 alive
                    if ctx.superstep == 1:
                        ctx.send_to_subgraph(target, "wake")

        rec = LatePing()
        run_application(rec, pg, coll, timestep_range=(0, 1))
        target_steps = [c[1] for c in rec.calls if c[2] == target]
        assert target_steps == [0, 2]  # woken at superstep 2 only

    def test_temporal_message_arrives_next_timestep_superstep0(self, setup):
        _, coll, pg = setup

        class Temporal(Recorder):
            def compute(s, ctx):
                super(Temporal, s).compute(ctx)
                ctx.send_to_next_timestep(("from", ctx.timestep))

        rec = Temporal()
        run_application(rec, pg, coll)
        for t, s, sgid, payloads, kinds in rec.calls:
            if t > 0:
                assert s == 0
                assert payloads == [("from", t - 1)]
                assert all(k is MessageKind.TEMPORAL for k in kinds)

    def test_cross_subgraph_temporal_send(self, setup):
        _, coll, pg = setup
        target = pg.subgraphs[-1].subgraph_id

        class CrossTemporal(Recorder):
            def compute(s, ctx):
                super(CrossTemporal, s).compute(ctx)
                if ctx.subgraph.subgraph_id == 0 and ctx.timestep == 0:
                    ctx.send_to_subgraph_in_next_timestep(target, "hop")

        rec = CrossTemporal()
        run_application(rec, pg, coll)
        received = [c for c in rec.calls if c[0] == 1 and c[2] == target]
        assert received[0][3] == ["hop"]

    def test_inputs_seq_dependent_only_first_timestep(self, setup):
        _, coll, pg = setup
        rec = Recorder()
        run_application(rec, pg, coll, inputs=[(0, "seed")])
        with_input = [(c[0], c[2]) for c in rec.calls if "seed" in c[3]]
        assert with_input == [(0, 0)]

    def test_inputs_independent_every_timestep(self, setup):
        _, coll, pg = setup

        class Indep(Recorder):
            pattern = Pattern.INDEPENDENT

        rec = Indep()
        run_application(rec, pg, coll, inputs=[(0, "seed")])
        with_input = sorted((c[0], c[2]) for c in rec.calls if "seed" in c[3])
        assert with_input == [(t, 0) for t in range(4)]
        assert all(k is MessageKind.APP_INPUT for c in rec.calls if c[3] for k in c[4])


class TestTermination:
    def test_while_loop_early_halt(self, setup):
        _, coll, pg = setup

        class HaltAfterTwo(Recorder):
            def compute(s, ctx):
                super(HaltAfterTwo, s).compute(ctx)
                if ctx.timestep >= 1:
                    ctx.vote_to_halt_timestep()
                else:
                    ctx.send_to_next_timestep("go")

        res = run_application(HaltAfterTwo(), pg, coll)
        assert res.timesteps_executed == 2
        assert res.halted_early

    def test_votes_without_message_silence_do_not_halt(self, setup):
        _, coll, pg = setup

        class VoteButSend(Recorder):
            def compute(s, ctx):
                super(VoteButSend, s).compute(ctx)
                ctx.vote_to_halt_timestep()
                ctx.send_to_next_timestep("still-going")

        res = run_application(VoteButSend(), pg, coll)
        assert res.timesteps_executed == 4  # temporal messages keep it alive
        assert not res.halted_early

    def test_partial_votes_do_not_halt(self, setup):
        _, coll, pg = setup

        class OneAbstains(Recorder):
            def compute(s, ctx):
                super(OneAbstains, s).compute(ctx)
                if ctx.subgraph.subgraph_id != 0:
                    ctx.vote_to_halt_timestep()

        res = run_application(OneAbstains(), pg, coll)
        assert res.timesteps_executed == 4

    def test_runaway_superstep_guard(self, setup):
        _, coll, pg = setup

        class Forever(TimeSeriesComputation):
            pattern = Pattern.SEQUENTIALLY_DEPENDENT

            def compute(self, ctx):
                ctx.send_to_subgraph(ctx.subgraph.subgraph_id, "loop")

        config = EngineConfig(max_supersteps=10)
        with pytest.raises(RuntimeError, match="max_supersteps"):
            run_application(Forever(), pg, coll, config=config)


class TestEndOfTimestepAndState:
    def test_end_of_timestep_called_once_per_subgraph(self, setup):
        _, coll, pg = setup

        class EOT(Recorder):
            def __init__(self):
                super().__init__()
                self.eot = []

            def end_of_timestep(self, ctx):
                self.eot.append((ctx.timestep, ctx.subgraph.subgraph_id))
                ctx.output("eot-record")

        rec = EOT()
        res = run_application(rec, pg, coll)
        assert len(rec.eot) == 4 * pg.num_subgraphs
        assert len(res.outputs) == 4 * pg.num_subgraphs

    def test_state_persists_across_supersteps_and_timesteps(self, setup):
        _, coll, pg = setup

        class Counter(TimeSeriesComputation):
            pattern = Pattern.SEQUENTIALLY_DEPENDENT

            def compute(self, ctx):
                ctx.state["n"] = ctx.state.get("n", 0) + 1
                ctx.vote_to_halt()

            def end_of_timestep(self, ctx):
                if ctx.timestep == ctx.num_timesteps - 1:
                    ctx.output(ctx.state["n"])

        res = run_application(Counter(), pg, coll)
        assert all(rec == 4 for _t, _sg, rec in res.outputs)
        assert set(res.states) == {sg.subgraph_id for sg in pg.subgraphs}
        assert all(st["n"] == 4 for st in res.states.values())


class TestMergePhase:
    def test_merge_receives_own_messages_in_timestep_order(self, setup):
        _, coll, pg = setup

        class MergeOrder(TimeSeriesComputation):
            pattern = Pattern.EVENTUALLY_DEPENDENT

            def compute(self, ctx):
                if ctx.superstep == 0:
                    ctx.send_to_merge(ctx.timestep)
                ctx.vote_to_halt()

            def merge(self, ctx):
                if ctx.superstep == 0:
                    ctx.output([m.payload for m in ctx.messages])
                ctx.vote_to_halt()

        res = run_application(MergeOrder(), pg, coll)
        assert len(res.merge_outputs) == pg.num_subgraphs
        for _sg, payload in res.merge_outputs:
            assert payload == [0, 1, 2, 3]

    def test_merge_superstep_messaging(self, setup):
        _, coll, pg = setup

        class MergeChat(TimeSeriesComputation):
            pattern = Pattern.EVENTUALLY_DEPENDENT

            def compute(self, ctx):
                ctx.vote_to_halt()

            def merge(self, ctx):
                if ctx.superstep == 0:
                    ctx.send_to_subgraph(0, ctx.subgraph.subgraph_id)
                    if ctx.subgraph.subgraph_id != 0:
                        ctx.vote_to_halt()
                else:
                    if ctx.subgraph.subgraph_id == 0 and ctx.messages:
                        ctx.output(sorted(m.payload for m in ctx.messages))
                    ctx.vote_to_halt()

        res = run_application(MergeChat(), pg, coll)
        (sg0, collected), = res.merge_outputs
        assert sg0 == 0
        assert collected == sorted(sg.subgraph_id for sg in pg.subgraphs)

    def test_merge_not_implemented_raises(self, setup):
        _, coll, pg = setup

        class NoMerge(TimeSeriesComputation):
            pattern = Pattern.EVENTUALLY_DEPENDENT

            def compute(self, ctx):
                ctx.vote_to_halt()

        with pytest.raises(NotImplementedError):
            run_application(NoMerge(), pg, coll)


class Sum(TimeSeriesComputation):
    """Carries each subgraph's size over the timesteps; module-level, so an
    agent's init pickles it."""

    pattern = Pattern.SEQUENTIALLY_DEPENDENT

    def compute(self, ctx):
        if ctx.superstep == 0:
            prev = sum(m.payload for m in ctx.messages) if ctx.messages else 0
            ctx.state["acc"] = prev + ctx.subgraph.num_vertices
        ctx.vote_to_halt()

    def end_of_timestep(self, ctx):
        ctx.send_to_next_timestep(ctx.state["acc"])
        if ctx.timestep == ctx.num_timesteps - 1:
            ctx.output(ctx.state["acc"])


class TestExecutors:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_executors_equivalent(self, setup, executor):
        _, coll, pg = setup
        res = run_application(Sum(), pg, coll, config=EngineConfig(executor=executor))
        per_sg = {sg: rec for _t, sg, rec in res.outputs}
        expected = {sg.subgraph_id: 4 * sg.num_vertices for sg in pg.subgraphs}
        assert per_sg == expected

    def test_unknown_executor(self, setup):
        _, coll, pg = setup
        with pytest.raises(ValueError, match="serial, process, socket"):
            run_application(Recorder(), pg, coll, config=EngineConfig(executor="quantum"))

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_hosts_only_for_the_socket_executor(self, setup, executor, monkeypatch):
        """Addresses nothing would dial are refused before anything is spawned."""
        from repro.runtime import process_cluster

        _, coll, pg = setup
        monkeypatch.setattr(process_cluster, "_FORK_CONTEXT", None)  # a fork would raise
        config = EngineConfig(executor=executor, hosts=("127.0.0.1:1",) * pg.num_partitions)
        with pytest.raises(ValueError, match="only the socket executor dials"):
            run_application(Recorder(), pg, coll, config=config)


class TestMetricsIntegration:
    def test_metrics_recorded(self, setup):
        _, coll, pg = setup
        res = run_application(Recorder(), pg, coll, config=EngineConfig(cost_model=CostModel.free()))
        m = res.metrics
        assert m.num_timesteps_executed() == 4
        assert len(m.timestep_series()) == 4
        assert m.total_wall() > 0
        assert len(m.partition_breakdown()) == pg.num_partitions

    def test_result_helpers(self, setup):
        _, coll, pg = setup

        class Out(Recorder):
            def end_of_timestep(self, ctx):
                ctx.output(("rec", ctx.timestep))

        res = run_application(Out(), pg, coll)
        assert {t for t, _sg, _rec in res.outputs} == {0, 1, 2, 3}
        assert {sg for _t, sg, _rec in res.outputs} == {sg.subgraph_id for sg in pg.subgraphs}
        assert len(res.outputs) == 4 * pg.num_subgraphs
        assert res.total_wall_s == res.metrics.total_wall()


class TestPartitionState:
    def test_shared_within_partition_not_across(self, setup):
        """ctx.partition_state is one dict per host, visible to all its
        subgraphs across supersteps and timesteps — Giraph++-style
        partition-centric scope."""
        _, coll, pg = setup

        class PartitionCounter(TimeSeriesComputation):
            pattern = Pattern.SEQUENTIALLY_DEPENDENT

            def compute(self, ctx):
                ctx.partition_state["count"] = ctx.partition_state.get("count", 0) + 1
                ctx.vote_to_halt()

            def end_of_timestep(self, ctx):
                if ctx.timestep == ctx.num_timesteps - 1:
                    ctx.output(ctx.partition_state["count"])

        res = run_application(PartitionCounter(), pg, coll)
        # Every subgraph of a partition reports the same partition-wide
        # total: (subgraphs in partition) × timesteps.
        by_partition = {}
        for _t, sgid, count in res.outputs:
            pid = pg.subgraphs[sgid].partition_id
            by_partition.setdefault(pid, set()).add(count)
        for pid, counts in by_partition.items():
            assert counts == {pg.partitions[pid].num_subgraphs * 4}

    def test_cache_shared_columns(self, setup):
        """The intended use: gather an instance column once per partition."""
        _, coll, pg = setup
        gathers = []

        class CachedGather(TimeSeriesComputation):
            pattern = Pattern.INDEPENDENT

            def compute(self, ctx):
                key = ("traffic", ctx.timestep)
                if key not in ctx.partition_state:
                    gathers.append(ctx.subgraph.partition_id)
                    ctx.partition_state[key] = ctx.instance.vertex_column("traffic")
                ctx.vote_to_halt()

        run_application(CachedGather(), pg, coll, timestep_range=(0, 2))
        # One gather per partition per timestep, not per subgraph.
        assert len(gathers) == pg.num_partitions * 2


def test_no_option_comes_back():
    """``EngineConfig``, ``AppResult`` and ``HostSpec`` keep 10, 12 and 4 fields."""
    from repro.core import AppResult
    from repro.runtime.host import HostSpec

    counts = tuple(len(c.__slots__) for c in (EngineConfig, AppResult, HostSpec))
    assert counts == (10, 12, 4)
