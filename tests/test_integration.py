"""Cross-module integration fuzz: the whole stack on random inputs.

Property-based end-to-end tests that exercise generator → partitioner →
GoFS → engine → algorithm → analysis in one pass, asserting the global
invariants that no unit test covers in combination:

* algorithm results are invariant to partitioner, partition count, storage
  path (in-memory vs GoFS), and executor;
* metrics accounting is internally consistent (walls ≥ per-partition busy,
  fractions sum to 1, timestep series length matches execution);
* analysis/exports are faithful to the run they summarize.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.algorithms import (
    HashtagAggregationComputation,
    MemeTrackingComputation,
    TDSPComputation,
    colored_timesteps_from_result,
    tdsp_labels_from_result,
)
from repro.algorithms import reference as ref
from repro.analysis import frontier_matrix, result_summary, utilization_rows
from repro.core import EngineConfig, run_application
from repro.generators import (
    SIRTweetPopulator,
    UniformLatencyPopulator,
    CompositePopulator,
)
from repro.graph import build_collection
from repro.partition import (
    BFSPartitioner,
    HashPartitioner,
    MetisLikePartitioner,
    partition_graph,
)
from repro.runtime import CostModel
from repro.storage import GoFS
from tests.conftest import hosts_for, make_random_template

PARTITIONERS = {
    "hash": HashPartitioner,
    "bfs": BFSPartitioner,
    "metis": MetisLikePartitioner,
}


def make_workload(seed: int, n: int = 35, m: int = 70, T: int = 6):
    rng = np.random.default_rng(seed)
    tpl = make_random_template(n, m, rng)
    populator = CompositePopulator(
        [
            UniformLatencyPopulator(0.3, 4.0, seed=seed),
            SIRTweetPopulator(
                tpl, [0], hit_probability=0.4, num_timesteps=T, seed=seed
            ),
        ]
    )
    return tpl, build_collection(tpl, T, populator, delta=5.0, lazy=True)


class TestPartitionInvariance:
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**16),
        part_a=st.sampled_from(sorted(PARTITIONERS)),
        part_b=st.sampled_from(sorted(PARTITIONERS)),
        ka=st.integers(1, 4),
        kb=st.integers(1, 4),
    )
    def test_tdsp_invariant_to_partitioning(self, seed, part_a, part_b, ka, kb):
        tpl, coll = make_workload(seed)
        results = []
        for name, k in ((part_a, ka), (part_b, kb)):
            pg = partition_graph(tpl, k, PARTITIONERS[name](seed=seed))
            res = run_application(TDSPComputation(0), pg, coll)
            results.append(tdsp_labels_from_result(res, tpl.num_vertices))
        np.testing.assert_allclose(
            np.nan_to_num(results[0], posinf=1e18),
            np.nan_to_num(results[1], posinf=1e18),
        )

    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**16), k=st.integers(1, 4))
    def test_meme_invariant_to_partitioning(self, seed, k):
        tpl, coll = make_workload(seed)
        pg = partition_graph(tpl, k, MetisLikePartitioner(seed=seed))
        got = colored_timesteps_from_result(
            run_application(MemeTrackingComputation(0), pg, coll)
        )
        assert got == ref.temporal_meme_bfs(coll, 0)


class TestStorageAndExecutorInvariance:
    @settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**16))
    def test_gofs_and_executors_agree(self, seed, tmp_path_factory, external_workers):
        tpl, coll = make_workload(seed)
        pg = partition_graph(tpl, 3, HashPartitioner(seed=seed))
        baseline = tdsp_labels_from_result(
            run_application(TDSPComputation(0), pg, coll), tpl.num_vertices
        )
        root = tmp_path_factory.mktemp(f"fuzz{seed}")
        GoFS.write_collection(root, pg, coll, packing=3, binning=2)
        for executor in ("serial", "process", "socket"):
            res = run_application(
                TDSPComputation(0),
                pg,
                coll,
                sources=GoFS.partition_views(root),
                config=EngineConfig(
                    executor=executor, hosts=hosts_for(executor, external_workers, 3)
                ),
            )
            got = tdsp_labels_from_result(res, tpl.num_vertices)
            np.testing.assert_allclose(
                np.nan_to_num(got, posinf=1e18), np.nan_to_num(baseline, posinf=1e18)
            )


    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_tdsp_reads_its_subgraphs_edge_slots_and_nothing_else(self, executor, tmp_path):
        """What a run gathers from GoFS is bounded by 8 B per subgraph edge
        slot (local CSR slots + remote slots) per timestep, whichever host
        holds the slot — and stays strictly below it, because a subgraph
        takes ``latency`` only in the timesteps the wave is inside it: a
        partition reads nothing before its first ``TDSPFrontier``.  No other
        attribute is read.  (Re-pinned in PR 17: until then every subgraph
        took both columns every timestep and the count was exactly the
        bound; before ``take`` each of k hosts built a template-wide column,
        8 * k * |E| per timestep.)"""
        from repro.generators import road_latency_collection, road_network

        tpl = road_network(1200, seed=3)
        coll = road_latency_collection(tpl, 16, seed=3)
        labels = {}
        for k in (2, 6):
            pg = partition_graph(tpl, k, MetisLikePartitioner(seed=3))
            per_host = [
                sum(len(sg.edge_index) + len(sg.remote.edge_index) for sg in part.subgraphs)
                for part in pg.partitions
            ]
            root = tmp_path / f"k{k}"
            GoFS.write_collection(root, pg, coll, packing=3, binning=2)
            views = GoFS.partition_views(root)
            began_with = [[] for _ in views]  # bytes projected when timestep t began
            if executor == "serial":  # the driver's views are the ones that run
                for view, seen in zip(views, began_with):
                    def instance(t, view=view, seen=seen, real=view.instance):
                        seen.append(view.bytes_projected)
                        return real(t)

                    view.instance = instance
            res = run_application(
                TDSPComputation(0), pg, coll, sources=views,
                config=EngineConfig(executor=executor, tracing=True),
            )
            counters, T = res.trace.counters, res.timesteps_executed
            got = counters["gofs.bytes_projected"]
            first = {}  # partition -> timestep of its first frontier
            for t, sgid, _rec in res.outputs:
                first.setdefault(pg.subgraphs[sgid].partition_id, t)
            assert max(first.values()) > 0, "the wave must take a while to arrive somewhere"
            assert 0 < got < 8 * T * sum(per_host)
            assert 0 < counters["gofs.columns_projected"] < 2 * T * pg.num_subgraphs
            if executor == "serial":
                assert [v.projected for v in views] == [{"e__latency"}] * k
                assert sum(v.bytes_projected for v in views) == got
                for p, view in enumerate(views):
                    assert view.bytes_projected <= 8 * T * per_host[p]
                    assert began_with[p][first[p]] == 0  # idle until the wave arrives
            labels[k] = tdsp_labels_from_result(res, tpl.num_vertices).tobytes()
        assert labels[2] == labels[6] == ref.time_expanded_dijkstra(coll, 0).tobytes()

    @pytest.mark.parametrize("algorithm", ["tdsp", "meme", "hash"])
    def test_a_gofs_run_builds_no_template_wide_column(self, algorithm, tmp_path):
        tpl, coll = make_workload(5)
        pg = partition_graph(tpl, 3, HashPartitioner(seed=5))
        GoFS.write_collection(tmp_path, pg, coll, packing=3, binning=2)
        computation = {
            "tdsp": lambda: TDSPComputation(0),
            "meme": lambda: MemeTrackingComputation(0),
            "hash": lambda: HashtagAggregationComputation.for_partitioned_graph(pg, 0),
        }[algorithm]()
        views = GoFS.partition_views(tmp_path)
        handed_out = []
        for view in views:
            def instance(t, real=view.instance):
                handed_out.append(real(t))
                return handed_out[-1]

            view.instance = instance
        res = run_application(computation, pg, coll, sources=views)
        assert len(handed_out) == 3 * res.timesteps_executed
        for inst in handed_out:
            assert list(inst.vertex_values._columns) == []
            assert list(inst.edge_values._columns) == []
        assert sum(v.columns_projected for v in views) > 0


class TestMetricsConsistency:
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**16), k=st.integers(2, 4))
    def test_accounting_invariants(self, seed, k):
        tpl, coll = make_workload(seed)
        pg = partition_graph(tpl, k, HashPartitioner(seed=seed))
        res = run_application(
            TDSPComputation(0), pg, coll, config=EngineConfig(cost_model=CostModel())
        )
        m = res.metrics
        # Walls are at least the busiest partition's contribution.
        for key, wall in m.superstep_walls().items():
            busy = [r.busy_s for r in m.step_records
                    if (r.phase, r.timestep, r.superstep) == key]
            assert wall >= max(busy) - 1e-12
        # Timestep series matches executed timesteps; total is their sum.
        series = m.timestep_series()
        assert len(series) == res.timesteps_executed
        assert m.total_wall() == pytest.approx(sum(series) + m.merge_wall())
        # Utilization fractions always sum to 1 per partition.
        for u in utilization_rows(res):
            total = (
                u.compute_fraction
                + u.partition_overhead_fraction
                + u.sync_overhead_fraction
            )
            assert total == pytest.approx(1.0)
        # Frontier accounting: every reached vertex appears exactly once.
        M = frontier_matrix(res, pg)
        reached = np.isfinite(
            tdsp_labels_from_result(res, tpl.num_vertices)
        ).sum()
        assert M.sum() == reached
        # Export summary mirrors the metrics.
        summary = result_summary(res)
        assert summary["metrics"]["timesteps"] == res.timesteps_executed
        assert len(summary["partitions"]) == k
