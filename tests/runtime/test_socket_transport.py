"""Frame protocol over real sockets: the one transport every agent speaks.

``_send_oob``/``_recv_oob`` hardening (torn header, short read mid-buffer,
oversized frame) exercised through ``_SocketConn`` over both kernel channels
it rides: ``pipe``, the AF_UNIX socketpair a forked agent is born on (what
``multiprocessing``'s pipe is on Linux), and ``socket``, the TCP
connection a ``hosts`` agent is reached over.
"""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.runtime import GatherTimeout, WorkerError, WorkerLost
from repro.runtime.process_cluster import _recv_oob, _send_oob, _wait_readable
from repro.runtime.process_cluster import _MAX_FRAME_BYTES, _SocketConn


def _tcp_pair():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        client = socket.create_connection(listener.getsockname())
        server, _ = listener.accept()
    return client, server


@pytest.fixture(params=["pipe", "socket"])
def conns(request):
    """A connected (sender, receiver) ``_SocketConn`` pair over each channel."""
    sa, sb = socket.socketpair() if request.param == "pipe" else _tcp_pair()
    a, b = _SocketConn(sa), _SocketConn(sb)
    yield a, b
    a.close()
    b.close()


class TestFrameProtocolAcrossTransports:
    """The frame-hardening contract, verified per channel."""

    def test_round_trip(self, conns):
        a, b = conns
        _send_oob(a, {"x": [1, 2, 3]})
        assert _recv_oob(b) == {"x": [1, 2, 3]}

    def test_numpy_oob_buffers_writeable(self, conns):
        a, b = conns
        _send_oob(a, np.arange(1000, dtype=np.int64))
        got = _recv_oob(b)
        assert got.tolist() == list(range(1000))
        got[0] = 42  # out-of-band buffers must come back writeable

    def test_truncated_header(self, conns):
        a, b = conns
        a.send_bytes(b"\x01")
        with pytest.raises(WorkerError, match="header is 1 bytes"):
            _recv_oob(b)

    def test_absurd_buffer_count(self, conns):
        a, b = conns
        a.send_bytes(struct.pack("<I", 1 << 30))
        with pytest.raises(WorkerError, match="declares 1073741824"):
            _recv_oob(b)

    def test_header_size_mismatch(self, conns):
        a, b = conns
        # Claims two buffers but carries only one size slot.
        a.send_bytes(struct.pack("<IQ", 2, 5))
        with pytest.raises(WorkerError, match="declares 2"):
            _recv_oob(b)

    def test_garbage_body(self, conns):
        a, b = conns
        a.send_bytes(struct.pack("<I", 0))
        a.send_bytes(b"not a pickle")
        with pytest.raises(WorkerError, match="failed to unpickle"):
            _recv_oob(b)

    def test_oversized_oob_buffer(self, conns):
        a, b = conns
        a.send_bytes(struct.pack("<IQ", 1, 4))  # declares 4 bytes
        a.send_bytes(struct.pack("<I", 0))  # any body
        a.send_bytes(b"123456789")  # ships 9
        with pytest.raises(WorkerError, match="larger than its declared"):
            _recv_oob(b)

    def test_short_oob_buffer_is_refused_not_zero_filled(self, conns):
        """A buffer frame shorter than the header's size used to decode with
        the rest of the array zero-filled."""
        a, b = conns
        wire = _WireCapture()
        _send_oob(wire, np.arange(4, dtype=np.int64))
        header, body, buf = wire.frames
        for frame in (header, body, buf[:8]):
            a.send_bytes(frame)
        with pytest.raises(WorkerError, match="8 bytes is shorter than its declared size 32"):
            _recv_oob(b)
        _send_oob(a, "resent")
        assert _recv_oob(b) == "resent"  # the stream is still aligned

    def test_huge_declared_buffer_is_refused_before_allocation(self, conns):
        """A header declaring 2**40 bytes must be a WorkerError a resend can
        cure, not a MemoryError out of allocating the buffer up front."""
        a, b = conns
        a.send_bytes(struct.pack("<IQ", 1, 1 << 40))
        a.send_bytes(struct.pack("<I", 0))  # any body
        a.send_bytes(b"12345678")
        with pytest.raises(WorkerError, match="shorter than its declared size 1099511627776"):
            _recv_oob(b)
        _send_oob(a, "resent")
        assert _recv_oob(b) == "resent"

    def test_deadline_times_out(self, conns):
        _a, b = conns
        start = time.monotonic()
        with pytest.raises(GatherTimeout, match="stuck reply"):
            _recv_oob(b, deadline=time.monotonic() + 0.05, what="stuck reply")
        assert time.monotonic() - start < 2.0

    def test_no_deadline_reads_normally(self, conns):
        a, b = conns
        _send_oob(a, "ok")
        assert _recv_oob(b, deadline=time.monotonic() + 5.0) == "ok"

    def test_frame_larger_than_the_send_buffer_arrives_whole(self, conns):
        """One ``sendmsg`` per frame, plus ``sendall`` of what it left: an
        8 MB array outgrows the kernel buffer and still arrives intact."""
        a, b = conns
        sent = np.arange(1 << 20, dtype=np.int64)
        assert sent.nbytes > a._sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        got = []
        reader = threading.Thread(target=lambda: got.append(_recv_oob(b)))
        reader.start()
        _send_oob(a, (sent, "tail"))
        reader.join(timeout=10)
        (arr, tail), = got
        assert tail == "tail" and np.array_equal(arr, sent)


@pytest.fixture
def raw_pair():
    """A raw socketpair: one side speaks bytes, the other a _SocketConn."""
    sa, sb = socket.socketpair()
    yield sa, _SocketConn(sb)
    sa.close()
    sb.close()


class TestSocketFraming:
    """Byte-stream failure modes: a frame torn or cut short on the stream."""

    def test_torn_length_prefix_is_eof(self, raw_pair):
        raw, conn = raw_pair
        raw.sendall(struct.pack("<Q", 100)[:4])  # half a length prefix
        raw.close()
        with pytest.raises(EOFError, match="mid-frame"):
            conn.recv_bytes()

    def test_short_read_mid_frame_is_eof(self, raw_pair):
        raw, conn = raw_pair
        raw.sendall(struct.pack("<Q", 100))  # declares 100 bytes
        raw.sendall(b"only-ten-b")  # ships 10, then dies
        raw.close()
        with pytest.raises(EOFError, match="mid-frame"):
            conn.recv_bytes()

    def test_short_read_mid_oob_buffer_is_eof(self, raw_pair):
        """A worker dying mid-buffer must not hang or mis-frame the recv."""
        raw, conn = raw_pair
        wire = _WireCapture()
        _send_oob(wire, np.arange(100, dtype=np.int64))
        header, body, buf = wire.frames
        for frame in (header, body):
            raw.sendall(struct.pack("<Q", len(frame)) + frame)
        raw.sendall(struct.pack("<Q", len(buf)) + bytes(buf[: len(buf) // 2]))
        raw.close()
        with pytest.raises(EOFError, match="mid-frame"):
            _recv_oob(conn)

    def test_oversized_transport_frame_rejected_before_allocation(self, raw_pair):
        raw, conn = raw_pair
        raw.sendall(struct.pack("<Q", _MAX_FRAME_BYTES + 1))
        # No frame boundary is left to read on from: the agent is lost, not
        # a resend away.
        with pytest.raises(WorkerLost, match="desynced or corrupt"):
            conn.recv_bytes()

    def test_recv_buffer_refuses_a_longer_frame_whole(self, raw_pair):
        raw, conn = raw_pair
        raw.sendall(struct.pack("<Q", 9) + b"123456789" + struct.pack("<Q", 4) + b"next")
        with pytest.raises(WorkerError, match="9 bytes is larger than its declared size 4"):
            conn.recv_buffer(4)
        assert conn.recv_bytes() == b"next"  # the refused frame was consumed whole

    def test_poll_sees_pending_data(self, raw_pair):
        raw, conn = raw_pair
        assert conn.poll(0) is False
        raw.sendall(b"x")
        assert conn.poll(0.5) is True


class _WireCapture:
    """Connection stand-in that records each send_bytes frame."""

    def __init__(self):
        self.frames = []

    def send_bytes(self, data):
        self.frames.append(bytes(data))


class TestWaitReadableAttribution:
    """ISSUE 9 satellite: the two timeout shapes are reported distinctly."""

    @pytest.fixture
    def pipe(self):
        sa, sb = socket.socketpair()
        a, b = _SocketConn(sa), _SocketConn(sb)
        yield a, b
        a.close()
        b.close()

    def test_expired_deadline_reported_as_expired(self, pipe):
        _a, b = pipe
        with pytest.raises(GatherTimeout, match="deadline already expired"):
            _wait_readable(b, time.monotonic() - 1.0, "reply")

    def test_poll_timeout_reported_as_poll_window(self, pipe):
        _a, b = pipe
        with pytest.raises(GatherTimeout, match="no data within .* poll window"):
            _wait_readable(b, time.monotonic() + 0.05, "reply")

    def test_expired_deadline_still_drains_ready_data(self, pipe):
        """A reply that already arrived is never spuriously timed out."""
        a, b = pipe
        a.send_bytes(b"ready")
        _wait_readable(b, time.monotonic() - 1.0, "reply")  # no raise
        assert b.recv_bytes() == b"ready"
