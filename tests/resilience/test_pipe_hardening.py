"""Driver-side pipe hardening: corrupt streams, timeouts, worker lifecycle."""

import multiprocessing as mp
import struct
import time

import pytest

from repro.core import EngineConfig, Pattern, run_application
from repro.resilience import AT_BEGIN, FaultPlan, RecoveryPolicy
from repro.runtime import GatherTimeout, ProcessCluster, RunMeta, WorkerError, WorkerLost
from repro.runtime.process_cluster import _recv_oob, _send_oob

from .conftest import AccumulateSum

pytestmark = pytest.mark.resilience


@pytest.fixture
def pipe():
    a, b = mp.Pipe()
    yield a, b
    a.close()
    b.close()


class TestRecvOob:
    def test_round_trip(self, pipe):
        a, b = pipe
        _send_oob(a, {"x": [1, 2, 3]})
        assert _recv_oob(b) == {"x": [1, 2, 3]}

    def test_numpy_buffer_round_trip(self, pipe):
        import numpy as np

        a, b = pipe
        _send_oob(a, np.arange(1000, dtype=np.int64))
        got = _recv_oob(b)
        assert got.tolist() == list(range(1000))
        got[0] = 42  # out-of-band buffers must come back writeable

    def test_truncated_header(self, pipe):
        a, b = pipe
        a.send_bytes(b"\x01")
        with pytest.raises(WorkerError, match="header is 1 bytes"):
            _recv_oob(b)

    def test_absurd_buffer_count(self, pipe):
        a, b = pipe
        a.send_bytes(struct.pack("<I", 1 << 30))
        with pytest.raises(WorkerError, match="declares 1073741824"):
            _recv_oob(b)

    def test_header_size_mismatch(self, pipe):
        a, b = pipe
        # Claims two buffers but carries only one size slot.
        a.send_bytes(struct.pack("<IQ", 2, 5))
        with pytest.raises(WorkerError, match="declares 2"):
            _recv_oob(b)

    def test_garbage_body(self, pipe):
        a, b = pipe
        a.send_bytes(struct.pack("<I", 0))
        a.send_bytes(b"not a pickle")
        with pytest.raises(WorkerError, match="failed to unpickle"):
            _recv_oob(b)

    def test_oversized_buffer(self, pipe):
        a, b = pipe
        a.send_bytes(struct.pack("<IQ", 1, 4))  # declares 4 bytes
        a.send_bytes(struct.pack("<I", 0))  # any body
        a.send_bytes(b"123456789")  # ships 9
        with pytest.raises(WorkerError, match="larger than its declared"):
            _recv_oob(b)

    def test_deadline_times_out(self, pipe):
        _a, b = pipe
        start = time.monotonic()
        with pytest.raises(GatherTimeout, match="stuck reply"):
            _recv_oob(b, deadline=time.monotonic() + 0.05, what="stuck reply")
        assert time.monotonic() - start < 2.0

    def test_no_deadline_reads_normally(self, pipe):
        a, b = pipe
        _send_oob(a, "ok")
        assert _recv_oob(b, deadline=time.monotonic() + 5.0) == "ok"


class _Cluster:
    """Build a ProcessCluster for the shared test case."""

    @staticmethod
    def make(case, sources, **kwargs):
        _tpl, coll, pg = case
        meta = RunMeta(Pattern.SEQUENTIALLY_DEPENDENT, 4, coll.delta, coll.t0)
        return ProcessCluster(pg, AccumulateSum(), meta, sources, **kwargs)


class TestLifecycle:
    def test_context_manager_reaps_on_driver_exception(self, case, sources):
        """The leak fix: a driver-side error mid-run must not orphan workers."""
        with pytest.raises(RuntimeError, match="driver-side"):
            with _Cluster.make(case, sources) as cluster:
                cluster.run_round("begin", 0, AT_BEGIN, [0.0, 0.0])
                procs = list(cluster._procs)
                assert all(p.is_alive() for p in procs)
                raise RuntimeError("driver-side failure")
        for p in procs:
            p.join(timeout=5)
        assert not any(p.is_alive() for p in procs)

    def test_gather_timeout_validated(self, case, sources):
        with pytest.raises(ValueError, match="gather_timeout_s"):
            _Cluster.make(case, sources, gather_timeout_s=0.0)

    def test_dead_worker_surfaces_as_worker_lost(self, case, sources):
        with _Cluster.make(case, sources) as cluster:
            cluster._procs[0].terminate()
            cluster._procs[0].join(timeout=5)
            lost, survivor = cluster.run_round("begin", 0, AT_BEGIN, [0.0, 0.0])
            assert isinstance(lost, WorkerLost) and lost.partition == 0
            assert survivor.partition == 1  # finished its round regardless


class TestGatherTimeout:
    def test_straggler_beyond_timeout_detected_and_recovered(self, case, sources):
        """A delay longer than the gather timeout is a detected wedge."""
        _tpl, coll, pg = case
        cfg = EngineConfig(
            executor="process",
            faults=FaultPlan.parse("delay@t1:s0:p0:d1.5", seed=2),
            recovery=RecoveryPolicy(backoff_s=0.0),
            gather_timeout_s=0.3,
        )
        baseline = run_application(
            AccumulateSum(), pg, coll, sources=sources,
            config=EngineConfig(executor="process"),
        )
        result = run_application(AccumulateSum(), pg, coll, sources=sources, config=cfg)
        assert result.outputs == baseline.outputs
        assert result.metrics.retries == 1
        assert result.failure_log[0].kind in ("GatherTimeout", "WorkerLost")
