"""Robustness tests: error propagation, edge cases."""

import numpy as np
import pytest

from repro.core import EngineConfig, Pattern, TimeSeriesComputation, run_application
from repro.graph import build_collection
from repro.partition import HashPartitioner, partition_graph
from tests.conftest import make_grid_template


@pytest.fixture
def setup():
    tpl = make_grid_template(4, 4)
    coll = build_collection(tpl, 3)
    pg = partition_graph(tpl, 2, HashPartitioner(seed=1))
    return tpl, coll, pg


class WorkerBoom(TimeSeriesComputation):
    """Fails in every compute call; module-level, so an agent's init pickles it."""

    def compute(self, ctx):
        raise ValueError("worker boom")


class TestErrorPropagation:
    def test_compute_error_surfaces(self, setup):
        _, coll, pg = setup

        class Boom(TimeSeriesComputation):
            def compute(self, ctx):
                raise ValueError("compute exploded")

        with pytest.raises(ValueError, match="compute exploded"):
            run_application(Boom(), pg, coll)

    def test_end_of_timestep_error_surfaces(self, setup):
        _, coll, pg = setup

        class Boom(TimeSeriesComputation):
            def compute(self, ctx):
                ctx.vote_to_halt()

            def end_of_timestep(self, ctx):
                raise RuntimeError("eot exploded")

        with pytest.raises(RuntimeError, match="eot exploded"):
            run_application(Boom(), pg, coll)

    def test_merge_error_surfaces(self, setup):
        _, coll, pg = setup

        class Boom(TimeSeriesComputation):
            pattern = Pattern.EVENTUALLY_DEPENDENT

            def compute(self, ctx):
                ctx.vote_to_halt()

            def merge(self, ctx):
                raise KeyError("merge exploded")

        with pytest.raises(KeyError, match="merge exploded"):
            run_application(Boom(), pg, coll)

    def test_process_executor_error_surfaces(self, setup):
        """The same application error, raised inside a worker process: the
        driver re-raises it with the worker's traceback and reaps every worker."""
        import multiprocessing as mp

        from repro.runtime import WorkerError
        from repro.resilience import RecoverableError

        _, coll, pg = setup
        with pytest.raises(WorkerError, match="ValueError: worker boom") as excinfo:
            run_application(
                WorkerBoom(), pg, coll,
                config=EngineConfig(executor="process"),
            )
        assert not isinstance(excinfo.value, RecoverableError)
        assert mp.active_children() == []

    def test_a_computation_that_does_not_pickle_is_refused_by_name(self, setup):
        """An agent starts from its init message alone, so a computation whose
        class is defined inside a function cannot leave the driver: the run
        fails with a ``TypeError`` naming the class and the module-level rule,
        and leaves no child process behind."""
        import multiprocessing as mp

        _, coll, pg = setup

        class Local(TimeSeriesComputation):
            def compute(self, ctx):
                ctx.vote_to_halt()

        with pytest.raises(TypeError) as excinfo:
            run_application(Local(), pg, coll, config=EngineConfig(executor="process"))
        message = str(excinfo.value)
        assert "<locals>.Local" in message and "module-level classes" in message
        assert mp.active_children() == []

    def test_error_at_late_timestep(self, setup):
        """The failure point's timestep is not swallowed by earlier success."""
        _, coll, pg = setup
        seen = []

        class LateBoom(TimeSeriesComputation):
            def compute(self, ctx):
                seen.append(ctx.timestep)
                if ctx.timestep == 2:
                    raise RuntimeError("late")
                ctx.vote_to_halt()

        with pytest.raises(RuntimeError, match="late"):
            run_application(LateBoom(), pg, coll)
        assert max(seen) == 2  # timesteps 0 and 1 completed first


class TestEdgeCases:
    def test_zero_timestep_range(self, setup):
        _, coll, pg = setup

        class Noop(TimeSeriesComputation):
            def compute(self, ctx):
                ctx.vote_to_halt()

        res = run_application(Noop(), pg, coll, timestep_range=(1, 1))
        assert res.timesteps_executed == 0
        assert res.outputs == []

    def test_single_vertex_graph(self):
        from repro.graph import GraphTemplate

        tpl = GraphTemplate(1, [], [])
        coll = build_collection(tpl, 2)
        pg = partition_graph(tpl, 1, HashPartitioner())

        class Emit(TimeSeriesComputation):
            def compute(self, ctx):
                ctx.output(ctx.subgraph.num_vertices)
                ctx.vote_to_halt()

        res = run_application(Emit(), pg, coll)
        assert [rec for _t, _sg, rec in res.outputs] == [1, 1]

    def test_message_to_own_subgraph(self, setup):
        """Self-messages are delivered like any other (next superstep)."""
        _, coll, pg = setup

        class SelfPing(TimeSeriesComputation):
            def compute(self, ctx):
                if ctx.superstep == 0:
                    ctx.send_to_subgraph(ctx.subgraph.subgraph_id, "me")
                else:
                    assert [m.payload for m in ctx.messages] == ["me"]
                    ctx.output("got")
                ctx.vote_to_halt()

        res = run_application(SelfPing(), pg, coll, timestep_range=(0, 1))
        assert len(res.outputs) == pg.num_subgraphs

    def test_large_payload_cost_accounted(self, setup):
        _, coll, pg = setup
        target = pg.subgraphs[-1].subgraph_id

        class BigSend(TimeSeriesComputation):
            def compute(self, ctx):
                if ctx.superstep == 0 and ctx.subgraph.subgraph_id == 0:
                    ctx.send_to_subgraph(target, np.zeros(1_000_000))
                ctx.vote_to_halt()

        res = run_application(BigSend(), pg, coll, timestep_range=(0, 1))
        # 8 MB over ~117 MiB/s ≈ 65 ms of modeled send time.
        sender = [r for r in res.metrics.step_records if r.bytes_sent > 0]
        assert sender and sender[0].send_s > 0.01
