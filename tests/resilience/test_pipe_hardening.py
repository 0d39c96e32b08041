"""Driver-side hardening of the worker connection: timeouts and worker lifecycle.

The frame codec's corrupt-stream cases live in
``tests/runtime/test_socket_transport.py``, over the one ``_SocketConn``
transport on both the socketpair and the TCP channel.
"""

import pytest

from repro.core import EngineConfig, Pattern, run_application
from repro.resilience import FaultPlan, RecoveryPolicy
from repro.runtime import Cluster, RunMeta, WorkerLost

from .conftest import AccumulateSum

pytestmark = pytest.mark.resilience


class _Cluster:
    """Build a cluster whose agents leave the driver, for the shared test case."""

    @staticmethod
    def make(case, sources, **kwargs):
        _tpl, coll, pg = case
        meta = RunMeta(Pattern.SEQUENTIALLY_DEPENDENT, 4, coll.delta, coll.t0)
        return Cluster(pg, AccumulateSum(), meta, sources, remote=True, **kwargs)


class TestLifecycle:
    def test_context_manager_reaps_on_driver_exception(self, case, sources):
        """The leak fix: a driver-side error mid-run must not orphan workers."""
        with pytest.raises(RuntimeError, match="driver-side"):
            with _Cluster.make(case, sources) as cluster:
                cluster.run_round("superstep", 0, 0, [[], []])
                # Partition 0 runs in the driver: one forked agent per other partition.
                procs = [c.proc for c in cluster._channels[1:]]
                assert len(procs) == cluster.num_partitions - 1
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
            cluster._channels[1].proc.terminate()  # partition 0 is the driver's own
            cluster._channels[1].proc.join(timeout=5)
            survivor, lost = cluster.run_round("superstep", 0, 0, [[], []])
            assert isinstance(lost, WorkerLost) and lost.partition == 1
            assert survivor.partition == 0  # finished its round regardless


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
