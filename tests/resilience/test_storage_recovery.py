"""GoFS load accounting across recovery (the double-count bugfix).

Host repair and resume re-trigger pack loads; the view must never record
checkpoint-replay reloads as fresh I/O.  Recovered runs may legitimately
end up with *fewer* load events than fault-free ones (the pack cache
survives the repair) — duplicated evidence was the bug.
"""

import numpy as np
import pytest

from repro.core import EngineConfig, Pattern, run_application
from repro.resilience import (
    CheckpointConfig,
    FaultPlan,
    RecoveryPolicy,
    RunFailureError,
)
from repro.runtime.host import ComputeHost, RunMeta
from repro.storage import GoFS, GoFSPartitionView

from .conftest import NUM_TIMESTEPS, AccumulateSum

pytestmark = pytest.mark.resilience


@pytest.fixture(scope="module")
def gofs_root(case, tmp_path_factory):
    """The resilience case written as a GoFS store: packing=2 -> 2 packs."""
    _tpl, coll, pg = case
    root = tmp_path_factory.mktemp("gofs-resilience")
    GoFS.write_collection(root, pg, coll, packing=2, binning=3)
    return root


def _identical(a, b):
    assert a.outputs == b.outputs
    assert a.merge_outputs == b.merge_outputs
    assert a.states == b.states


def _no_duplicate_load_evidence(views):
    for view in views:
        timesteps = [t for t, _s in view.load_events]
        assert len(timesteps) == len(set(timesteps)), (
            f"partition {view.partition_id} double-counted pack loads: {timesteps}"
        )


class ReadsLatency(AccumulateSum):
    """AccumulateSum that reads its subgraph's latencies: a GoFS view reads
    a pack's bytes on the first row read, so this is what loads one."""

    def compute(self, ctx):
        ctx.take_edges("latency", ctx.subgraph.edge_index)
        super().compute(ctx)


class TestHostRestorePurge:
    """Unit-level: a restored host's replayed superstep 0 reloads without fresh
    evidence."""

    def _host(self, case, view):
        _tpl, coll, pg = case
        meta = RunMeta(Pattern.SEQUENTIALLY_DEPENDENT, NUM_TIMESTEPS, coll.delta, coll.t0)
        sg_part = np.asarray([sg.partition_id for sg in pg.subgraphs], dtype=np.int64)
        return ComputeHost(pg.partitions[0], ReadsLatency(), meta, view, sg_part)

    def test_superstep_boundary_restore_keeps_committed_begin_load(self, case, gofs_root):
        import pickle

        view = GoFSPartitionView(gofs_root, 0)
        host = self._host(case, view)

        def timestep(t, replay=False):
            return host.run_superstep(t, 0, [], replay=replay)

        timestep(0)
        timestep(1)
        snap = pickle.loads(pickle.dumps(host.snapshot_state()))  # the t=1 close
        assert timestep(2).load_s > 0  # the superstep read pack 1
        timestep(3)
        assert [t for t, _s in view.load_events] == [0, 2]
        # Restore the t=1 close, then replay t=2's superstep 0 from the journal:
        # its committed load stays; the replay reload is real I/O but not
        # fresh evidence.
        host.restore_state(snap)
        assert [t for t, _s in view.load_events] == [0, 2]
        timestep(2, replay=True)
        assert [t for t, _s in view.load_events] == [0, 2]
        timestep(3)
        assert [t for t, _s in view.load_events] == [0, 2]

    def test_pickled_fresh_view_reload_records_nothing(self, gofs_root):
        import pickle

        view = GoFSPartitionView(gofs_root, 1)
        view.instance(0)
        clone = pickle.loads(pickle.dumps(view))  # a respawned worker's view
        clone.reload_instance(2).edge_column("latency")  # reads pack 1
        assert clone.load_events == [] and clone.drain_load() == 0.0


class TestEngineRecoveryWithGoFS:
    @pytest.fixture(scope="class")
    def baseline(self, case):
        _tpl, coll, pg = case
        return run_application(AccumulateSum(), pg, coll)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_checkpoint_rollback_bit_identical(self, case, gofs_root, tmp_path, baseline, executor):
        _tpl, coll, pg = case
        sources = GoFS.partition_views(gofs_root)
        result = run_application(
            AccumulateSum(), pg, coll, sources=sources,
            config=EngineConfig(
                executor=executor,
                checkpoint=CheckpointConfig(dir=tmp_path, every=1),
                faults=FaultPlan.parse("kill@t2:p1"),
                recovery=RecoveryPolicy(backoff_s=0.0),
            ),
        )
        _identical(result, baseline)
        assert result.metrics.retries >= 1
        if executor != "process":
            # The serial cluster keeps the driver's sources: their load
            # evidence must be duplicate-free after the rollback replay.
            _no_duplicate_load_evidence(sources)

    def test_genesis_rollback_purges_evidence(self, case, gofs_root, baseline):
        _tpl, coll, pg = case
        sources = GoFS.partition_views(gofs_root)
        result = run_application(
            AccumulateSum(), pg, coll, sources=sources,
            config=EngineConfig(
                faults=FaultPlan.parse("kill@t2:p1"),
                recovery=RecoveryPolicy(backoff_s=0.0),
            ),
        )
        _identical(result, baseline)
        assert result.metrics.retries == 1
        _no_duplicate_load_evidence(sources)

    def test_crash_then_resume_bit_identical(self, case, gofs_root, tmp_path, baseline):
        _tpl, coll, pg = case
        with pytest.raises(RunFailureError):
            run_application(
                AccumulateSum(), pg, coll,
                sources=GoFS.partition_views(gofs_root),
                config=EngineConfig(
                    checkpoint=CheckpointConfig(dir=tmp_path, every=1),
                    faults=FaultPlan.parse("kill@t2:p0"),
                    recovery=RecoveryPolicy(backoff_s=0.0, max_retries=0),
                ),
            )
        fresh = GoFS.partition_views(gofs_root)
        resumed = run_application(
            AccumulateSum(), pg, coll, sources=fresh,
            config=EngineConfig(checkpoint=CheckpointConfig(dir=tmp_path)),
            resume_from=True,
        )
        _identical(resumed, baseline)
        assert resumed.timesteps_executed == baseline.timesteps_executed
        _no_duplicate_load_evidence(fresh)
