"""Behavioral tests for the batched message plane.

Covers the host-local short-circuit (including temporal self-sends), frame
coalescing, the pending-local quiescence rule, remote temporal frames routed
unopened across the timestep boundary, and sender-side combiners.
"""

import numpy as np
import pytest

from repro.core import EngineConfig, Pattern, TimeSeriesComputation, run_application
from repro.graph import build_collection
from repro.partition import HashPartitioner, partition_graph
from repro.resilience import CheckpointConfig, FaultPlan, RecoveryPolicy, RunFailureError
from repro.runtime import Cluster
from tests.conftest import hosts_for, make_grid_template


def _case(partitions=2):
    tpl = make_grid_template(4, 6)
    coll = build_collection(tpl, 1)
    pg = partition_graph(tpl, partitions, HashPartitioner(seed=1))
    return tpl, coll, pg


def _by_partition(pg):
    per = {}
    for sg in pg.subgraphs:
        per.setdefault(sg.partition_id, []).append(sg.subgraph_id)
    return per


class Broadcast(TimeSeriesComputation):
    """Every subgraph messages every other subgraph once at superstep 0."""

    pattern = Pattern.INDEPENDENT

    def __init__(self, all_ids):
        self.all_ids = list(all_ids)

    def compute(self, ctx):
        if ctx.superstep == 0:
            for sgid in self.all_ids:
                if sgid != ctx.subgraph.subgraph_id:
                    ctx.send_to_subgraph(sgid, 1)
        else:
            ctx.state["got"] = len(ctx.messages)
        ctx.vote_to_halt()


class TestShortCircuitAndFrames:
    def test_local_vs_remote_classification(self):
        _tpl, coll, pg = _case()
        per = _by_partition(pg)
        assert any(len(ids) > 1 for ids in per.values()), "need co-located subgraphs"
        n = pg.num_subgraphs
        res = run_application(Broadcast([sg.subgraph_id for sg in pg.subgraphs]), pg, coll)

        expected_local = sum(len(ids) * (len(ids) - 1) for ids in per.values())
        m = res.metrics
        assert m.total_local_messages() == expected_local
        assert m.total_remote_messages() == n * (n - 1) - expected_local
        assert m.total_messages() == n * (n - 1)
        # Every receiver saw all n-1 messages regardless of route.
        assert all(st.get("got") == n - 1 for st in res.states.values())

    def test_one_frame_per_partition_pair(self):
        _tpl, coll, pg = _case()
        res = run_application(Broadcast([sg.subgraph_id for sg in pg.subgraphs]), pg, coll)
        m = res.metrics
        # All remote sends happen in superstep 0: each host packs exactly one
        # frame per *other* partition, so the driver routes P*(P-1) frames —
        # far fewer units than the individual remote messages.
        p = pg.num_partitions
        assert m.total_frames() == p * (p - 1)
        assert m.total_frames() < m.total_remote_messages()
        assert 0.0 < m.cut_traffic_ratio() < 1.0

    def test_summary_reports_plane_counters(self):
        _tpl, coll, pg = _case()
        res = run_application(Broadcast([sg.subgraph_id for sg in pg.subgraphs]), pg, coll)
        s = res.metrics.summary()
        assert s["messages"] == s["local_messages"] + s["remote_messages"]
        assert s["frames"] == res.metrics.total_frames()


class LocalPing(TimeSeriesComputation):
    """One same-partition send; the receiver must still be woken up."""

    pattern = Pattern.INDEPENDENT

    def __init__(self, src, dst):
        self.src = int(src)
        self.dst = int(dst)

    def compute(self, ctx):
        sgid = ctx.subgraph.subgraph_id
        if ctx.superstep == 0 and sgid == self.src:
            ctx.send_to_subgraph(self.dst, "ping")
        if sgid == self.dst and ctx.messages:
            ctx.output([m.payload for m in ctx.messages])
        ctx.vote_to_halt()


class TestPendingLocalQuiescence:
    def test_local_only_superstep_messages_are_delivered(self):
        """The engine must not quiesce while hosts hold local deliveries.

        After superstep 0 no frames reach the driver and every subgraph has
        voted to halt — only the hosts' ``has_pending_local`` flags reveal
        the short-circuited message still in flight.
        """
        _tpl, coll, pg = _case()
        per = _by_partition(pg)
        ids = next(ids for ids in per.values() if len(ids) > 1)
        src, dst = ids[0], ids[1]
        res = run_application(LocalPing(src, dst), pg, coll)
        assert [rec for _t, _sg, rec in res.outputs] == [["ping"]]
        m = res.metrics
        assert m.total_remote_messages() == 0
        assert m.total_frames() == 0
        assert m.total_local_messages() == 1
        # Delivery needed a second superstep.
        assert m.supersteps_per_timestep[0] >= 2


class Carry(TimeSeriesComputation):
    """Sequentially dependent accumulator via temporal self-sends."""

    pattern = Pattern.SEQUENTIALLY_DEPENDENT

    def compute(self, ctx):
        if ctx.superstep == 0:
            prev = sum(m.payload for m in ctx.messages) if ctx.messages else 0
            ctx.state["acc"] = prev + 1
        ctx.vote_to_halt()

    def end_of_timestep(self, ctx):
        ctx.send_to_next_timestep(ctx.state["acc"])


class TestTemporalShortCircuit:
    def test_temporal_self_sends_never_leave_the_host(self):
        tpl = make_grid_template(4, 6)
        coll = build_collection(tpl, 3)
        pg = partition_graph(tpl, 2, HashPartitioner(seed=1))
        res = run_application(Carry(), pg, coll)
        m = res.metrics
        assert m.total_local_messages() > 0
        assert m.total_remote_messages() == 0
        assert m.total_frames() == 0
        assert all(st["acc"] == 3 for st in res.states.values())


class CrossPing(TimeSeriesComputation):
    """``src`` pings ``dst`` (on another partition) across every timestep boundary."""

    pattern = Pattern.SEQUENTIALLY_DEPENDENT

    def __init__(self, src, dst):
        self.src, self.dst = src, dst

    def compute(self, ctx):
        for m in ctx.messages:
            ctx.state.setdefault("got", []).append((m.payload, ctx.timestep, ctx.superstep))
        if ctx.subgraph.subgraph_id == self.src:
            ctx.send_to_subgraph_in_next_timestep(self.dst, ("ping", ctx.timestep))
        ctx.vote_to_halt()


def _cross_ping_case():
    tpl = make_grid_template(4, 4)
    coll = build_collection(tpl, 3)
    pg = partition_graph(tpl, 2, HashPartitioner(seed=1))
    per = _by_partition(pg)
    return coll, pg, CrossPing(per[0][0], per[1][0])


def _cross_ping_run(executor, coll, pg, comp, config=None, resume_from=None, agents=()):
    return run_application(
        comp, pg, coll,
        config=EngineConfig(
            executor=executor,
            hosts=hosts_for(executor, agents, pg.num_partitions),
            **(config or {}),
        ),
        resume_from=resume_from,
    )


class TestTemporalFramesRoutedUnopened:
    """The driver's one routing path: a remote temporal frame buffered at a
    timestep boundary reaches its partition as the frame the sender packed."""

    @pytest.mark.parametrize("executor", ["serial", "process", "socket"])
    def test_ping_arrives_at_superstep_0_of_next_timestep(self, executor, external_workers):
        coll, pg, comp = _cross_ping_case()
        res = _cross_ping_run(executor, coll, pg, comp, agents=external_workers)
        assert res.states[comp.dst]["got"] == [(("ping", 0), 1, 0), (("ping", 1), 2, 0)]
        assert all("got" not in st for sgid, st in res.states.items() if sgid != comp.dst)

    def test_partition_1_is_handed_the_frame_partition_0_returned(self, monkeypatch):
        coll, pg, comp = _cross_ping_case()
        rounds = []
        run_round = Cluster.run_round

        def spy(self, op, timestep, superstep, payloads):
            outcomes = run_round(self, op, timestep, superstep, payloads)
            rounds.append((op, timestep, superstep, payloads, outcomes))
            return outcomes

        monkeypatch.setattr(Cluster, "run_round", spy)
        run_application(comp, pg, coll)
        (sent,) = [
            f
            for op, t, _s, _payloads, outcomes in rounds
            if op in ("superstep", "eot") and t == 0
            for f in outcomes[0].temporal_frames
        ]
        (delivered,) = next(
            payloads[1] for op, t, s, payloads, _o in rounds if (op, t, s) == ("superstep", 1, 0)
        )
        assert delivered is sent
        assert delivered.dst_partition == 1 and list(delivered.destinations) == [comp.dst]

    @pytest.mark.parametrize("executor", ["serial", "process", "socket"])
    def test_resume_at_the_boundary_gives_the_same_states(
        self, executor, tmp_path, external_workers
    ):
        coll, pg, comp = _cross_ping_case()
        agents = external_workers
        baseline = _cross_ping_run(executor, coll, pg, comp, agents=agents)
        ckpt = {"checkpoint": CheckpointConfig(dir=tmp_path, every=1)}
        # Die in timestep 1: the latest checkpoint holds timestep 0's ping frame.
        crash = dict(
            ckpt,
            faults=FaultPlan.parse("kill@t1:p1", seed=0),
            recovery=RecoveryPolicy(backoff_s=0.0, max_retries=0),
        )
        with pytest.raises(RunFailureError):
            _cross_ping_run(executor, coll, pg, comp, config=crash, agents=agents)
        resumed = _cross_ping_run(
            executor, coll, pg, comp, config=ckpt, resume_from=True, agents=agents
        )
        assert resumed.timesteps_executed == baseline.timesteps_executed == 3
        assert resumed.states == baseline.states


class SumInto(TimeSeriesComputation):
    """Many senders, one target; a combiner can fold them per host."""

    pattern = Pattern.INDEPENDENT

    def __init__(self, senders, target):
        self.senders = set(int(s) for s in senders)
        self.target = int(target)

    def combine(self, dst, payloads):
        return sum(payloads)

    def compute(self, ctx):
        sgid = ctx.subgraph.subgraph_id
        if ctx.superstep == 0 and sgid in self.senders:
            ctx.send_to_subgraph(self.target, 1)
        if sgid == self.target and ctx.messages:
            ctx.output(
                (
                    sum(m.payload for m in ctx.messages),
                    len(ctx.messages),
                    [m.source_subgraph for m in ctx.messages],
                )
            )
        ctx.vote_to_halt()


class SumIntoRaw(SumInto):
    """The same sends with no combiner: raw messages, one per sender."""

    combine = None


class TestCombiners:
    def _setup(self):
        _tpl, coll, pg = _case()
        per = _by_partition(pg)
        senders = next(ids for ids in per.values() if len(ids) > 1)
        target = next(
            ids[0] for p, ids in per.items() if not set(ids) & set(senders)
        )
        return coll, pg, senders, target

    def test_combiner_reduces_remote_messages(self):
        coll, pg, senders, target = self._setup()
        on = run_application(SumInto(senders, target), pg, coll)
        off = run_application(SumIntoRaw(senders, target), pg, coll)
        # Same aggregate either way...
        total_on, count_on, sources_on = next(rec for _t, _sg, rec in on.outputs)
        total_off, count_off, sources_off = next(rec for _t, _sg, rec in off.outputs)
        assert total_on == total_off == len(senders)
        # ...but the combined run ships one message where the raw run ships N,
        # and the combined envelope no longer names a single source.
        assert count_on == 1 and count_off == len(senders)
        assert sources_on == [None]
        assert set(sources_off) == set(senders)
        assert on.metrics.total_remote_messages() == 1
        assert off.metrics.total_remote_messages() == len(senders)

    def test_combiner_never_applied_to_single_messages(self):
        coll, pg, senders, target = self._setup()
        res = run_application(SumInto(senders[:1], target), pg, coll)
        _total, count, sources = next(rec for _t, _sg, rec in res.outputs)
        assert count == 1
        assert sources == [senders[0]]  # original envelope, untouched

    def test_combiner_never_folds_across_kind_or_timestep(self):
        """Mixed kinds/timesteps to one destination keep separate envelopes."""
        from repro.core.messages import Message, MessageKind
        from repro.runtime.host import ComputeHost

        host = ComputeHost.__new__(ComputeHost)
        host._combine = lambda dst, payloads: sum(payloads)
        sends = [
            (1, Message(1, 0, 0, MessageKind.SUPERSTEP)),
            (1, Message(2, 0, 0, MessageKind.TEMPORAL)),
            (1, Message(4, 0, 0, MessageKind.SUPERSTEP)),
            (1, Message(8, 0, 1, MessageKind.SUPERSTEP)),
        ]
        out = ComputeHost._combined(host, sends)
        assert [(d, m.payload, m.kind, m.timestep) for d, m in out] == [
            (1, 5, MessageKind.SUPERSTEP, 0),
            (1, 2, MessageKind.TEMPORAL, 0),
            (1, 8, MessageKind.SUPERSTEP, 1),
        ]
