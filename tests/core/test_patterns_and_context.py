"""Tests for design patterns and execution contexts."""

import numpy as np
import pytest

from repro.core.context import ComputeContext, EndOfTimestepContext, MergeContext
from repro.core.messages import Message, MessageKind, SendBuffer
from repro.core.patterns import Pattern
from repro.graph import RemoteEdges, Subgraph
from repro.graph.instance import GraphInstance
from repro.graph.template import GraphTemplate
from repro.runtime.host import RunMeta


def tiny_subgraph():
    return Subgraph(
        3,
        0,
        np.array([0, 1]),
        np.array([0, 1, 2]),
        np.array([1, 0]),
        np.array([0, 0]),
    )


def make_ctx(pattern=Pattern.SEQUENTIALLY_DEPENDENT, timestep=1, superstep=0, num_timesteps=5):
    tpl = GraphTemplate(2, [0], [1])
    sg = tiny_subgraph()
    buffer = SendBuffer()
    ctx = ComputeContext(
        sg,
        GraphInstance(tpl, float(timestep)),
        timestep,
        superstep,
        [],
        {},
        RunMeta(pattern, num_timesteps, delta=5.0, t0=10.0),
        buffer,
    )
    return ctx, buffer


class TestPattern:
    def test_temporal_messages(self):
        assert Pattern.SEQUENTIALLY_DEPENDENT.allows_temporal_messages
        assert not Pattern.INDEPENDENT.allows_temporal_messages
        assert not Pattern.EVENTUALLY_DEPENDENT.allows_temporal_messages

    def test_merge(self):
        assert Pattern.EVENTUALLY_DEPENDENT.has_merge
        assert not Pattern.SEQUENTIALLY_DEPENDENT.has_merge


class TestComputeContext:
    def test_properties(self):
        ctx, _ = make_ctx(timestep=2, superstep=0)
        assert ctx.is_first_superstep
        assert not ctx.is_first_timestep
        assert ctx.timestamp == 10.0 + 2 * 5.0

    def test_send_to_subgraph(self):
        ctx, buf = make_ctx()
        ctx.send_to_subgraph(9, "payload")
        (dst, msg), = buf.superstep_sends
        assert dst == 9
        assert msg.kind is MessageKind.SUPERSTEP
        assert msg.source_subgraph == 3
        assert msg.timestep == 1

    def test_send_to_next_timestep(self):
        ctx, buf = make_ctx()
        ctx.send_to_next_timestep("x")
        (dst, msg), = buf.temporal_sends
        assert dst == 3  # same subgraph
        assert msg.kind is MessageKind.TEMPORAL

    def test_send_to_subgraph_in_next_timestep(self):
        ctx, buf = make_ctx()
        ctx.send_to_subgraph_in_next_timestep(7, "x")
        (dst, msg), = buf.temporal_sends
        assert dst == 7

    def test_temporal_send_dropped_at_last_timestep(self):
        ctx, buf = make_ctx(timestep=4, num_timesteps=5)
        ctx.send_to_next_timestep("x")
        ctx.send_to_subgraph_in_next_timestep(0, "y")
        assert buf.temporal_sends == []

    def test_temporal_send_wrong_pattern_raises(self):
        for pattern in (Pattern.INDEPENDENT, Pattern.EVENTUALLY_DEPENDENT):
            ctx, _ = make_ctx(pattern=pattern)
            with pytest.raises(RuntimeError, match="sequentially dependent"):
                ctx.send_to_next_timestep("x")

    def test_send_to_merge_requires_pattern(self):
        ctx, buf = make_ctx(pattern=Pattern.EVENTUALLY_DEPENDENT)
        ctx.send_to_merge("m")
        assert len(buf.merge_sends) == 1
        ctx2, _ = make_ctx(pattern=Pattern.SEQUENTIALLY_DEPENDENT)
        with pytest.raises(RuntimeError, match="eventually dependent"):
            ctx2.send_to_merge("m")

    def test_votes(self):
        ctx, buf = make_ctx()
        ctx.vote_to_halt()
        ctx.vote_to_halt_timestep()
        assert buf.voted_halt and buf.voted_halt_timestep

    def test_output(self):
        ctx, buf = make_ctx()
        ctx.output({"k": 1})
        assert buf.outputs == [{"k": 1}]


class TestEndOfTimestepContext:
    def test_temporal_send_and_votes(self):
        tpl = GraphTemplate(2, [0], [1])
        buf = SendBuffer()
        ctx = EndOfTimestepContext(
            tiny_subgraph(),
            GraphInstance(tpl, 0.0),
            1,
            -1,
            (),
            {},
            RunMeta(Pattern.SEQUENTIALLY_DEPENDENT, 5, 5.0, 0.0),
            buf,
        )
        assert ctx.timestamp == 5.0
        ctx.send_to_next_timestep("s")
        ctx.vote_to_halt_timestep()
        assert len(buf.temporal_sends) == 1 and buf.voted_halt_timestep


class TestMergeContext:
    def test_send_and_halt(self):
        buf = SendBuffer()
        ctx = MergeContext(
            tiny_subgraph(), None, -1, 0, [Message("x")], {},
            RunMeta(Pattern.EVENTUALLY_DEPENDENT, 5, 1.0, 0.0), buf,
        )
        assert [m.payload for m in ctx.messages] == ["x"]
        ctx.send_to_subgraph(2, "y")
        ctx.vote_to_halt()
        (dst, msg), = buf.superstep_sends
        assert dst == 2 and msg.kind is MessageKind.MERGE
        assert buf.voted_halt


class TestConstructsPerContext:
    """One constructor builds all three; what each may *do* still differs."""

    def test_merge_offers_no_temporal_or_instance_constructs(self):
        for name in (
            "send_to_next_timestep", "send_to_subgraph_in_next_timestep", "send_to_merge",
            "vote_to_halt_timestep", "take_vertices", "take_edges", "timestamp",
        ):
            assert not hasattr(MergeContext, name), name
        assert hasattr(MergeContext, "send_to_subgraph") and hasattr(MergeContext, "vote_to_halt")

    def test_end_of_timestep_offers_no_superstep_constructs(self):
        for name in ("send_to_subgraph", "vote_to_halt", "is_first_superstep"):
            assert not hasattr(EndOfTimestepContext, name), name
        for name in ("send_to_next_timestep", "send_to_merge", "vote_to_halt_timestep"):
            assert hasattr(EndOfTimestepContext, name), name
