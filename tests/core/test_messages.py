"""Tests for messages, send buffers, frames, and bulk routing."""

import numpy as np
import pytest

from repro.core.messages import (
    Message,
    MessageFrame,
    MessageKind,
    SendBuffer,
    frames_from_deliveries,
    route_frames,
)


class TestMessage:
    def test_defaults(self):
        m = Message("hello")
        assert m.kind is MessageKind.SUPERSTEP
        assert m.source_subgraph is None
        assert m.timestep == -1

    def test_approx_size_numpy(self):
        m = Message(np.zeros(10, dtype=np.float64))
        assert m.approx_size() == 80

    def test_approx_size_bytes_and_str(self):
        assert Message(b"abcd").approx_size() == 4
        assert Message("abc").approx_size() == 3

    def test_approx_size_containers(self):
        assert Message([1, 2, 3]).approx_size() == 48
        assert Message({}).approx_size() == 16

    def test_approx_size_scalar(self):
        assert Message(5).approx_size() == 16

    def test_immutable(self):
        m = Message(1)
        try:
            m.payload = 2
            raised = False
        except AttributeError:
            raised = True
        assert raised


class TestSendBuffer:
    def test_fresh_buffer_is_empty_and_has_cast_no_vote(self):
        b = SendBuffer()
        assert b.voted_halt is False and b.voted_halt_timestep is False
        assert (b.superstep_sends, b.temporal_sends, b.merge_sends, b.outputs) == ([], [], [], [])
        assert b.superstep_sends is not SendBuffer().superstep_sends


class TestMessageFrame:
    def test_pack_precomputes_sizes(self):
        sends = [(3, Message(np.zeros(4))), (7, Message(b"xy"))]
        frame = MessageFrame.pack(0, 1, sends)
        assert len(frame) == 2
        assert frame.nbytes == 32 + 2
        assert frame.destinations.dtype == np.int64
        assert list(frame.destinations) == [3, 7]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="per message"):
            MessageFrame(0, 1, np.array([1, 2], dtype=np.int64), [Message("a")])

    def test_deliver_into_appends_in_order(self):
        frame = MessageFrame.pack(
            0, 1, [(5, Message("a")), (6, Message("b")), (5, Message("c"))]
        )
        inbox = {5: [Message("z")]}
        frame.deliver_into(inbox)
        assert [m.payload for m in inbox[5]] == ["z", "a", "c"]
        assert [m.payload for m in inbox[6]] == ["b"]

    def test_frames_from_deliveries_one_frame_per_partition(self):
        sg_part = np.array([0, 0, 1], dtype=np.int64)
        deliveries = {0: [Message("a")], 1: [Message("b")], 2: [Message("c")]}
        per_part = frames_from_deliveries(deliveries, sg_part, 2)
        assert len(per_part) == 2
        assert len(per_part[0]) == 1 and len(per_part[0][0]) == 2
        assert len(per_part[1]) == 1 and list(per_part[1][0].destinations) == [2]

    def test_frames_from_deliveries_skips_empty_partitions(self):
        sg_part = np.array([0, 1], dtype=np.int64)
        per_part = frames_from_deliveries({0: [Message("a")]}, sg_part, 2)
        assert per_part[1] == []

    def test_route_frames(self):
        f01 = MessageFrame.pack(0, 1, [(9, Message("a"))])
        f21 = MessageFrame.pack(2, 1, [(9, Message("b"))])
        f10 = MessageFrame.pack(1, 0, [(0, Message("c"))])
        routed = route_frames([f01, f10, f21], 3)
        assert routed[0] == [f10]
        assert routed[1] == [f01, f21]
        assert routed[2] == []
