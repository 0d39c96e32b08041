"""Ablation: temporal parallelism for the eventually dependent pattern.

Section II-D/IV-B: HASH's timesteps could run concurrently before the
Merge, but "this is currently not exploited by GoFFish" — which is why HASH
scales worst in Fig 5a.  This bench sizes the missing optimization: the
pipelined makespan of the sequential run's per-timestep walls scheduled
onto W concurrent sub-clusters, vs the sequential schedule.  It is a
schedule model over one measured run — the engine itself runs timesteps in
order (an in-process thread schedule was measured slower than that and
deleted; see EXPERIMENTS.md).
"""

from repro.algorithms import HashtagAggregationComputation
from repro.analysis import pipelined_makespan, render_table
from repro.core import EngineConfig, run_application
from repro.runtime import CostModel

from conftest import SCALE, emit

WORKER_COUNTS = (1, 2, 4, 8)


def test_ablation_temporal_parallelism(benchmark, datasets, partitioned):
    pg = partitioned("WIKI", 6)
    collection = datasets["WIKI"]["tweets"]
    comp = HashtagAggregationComputation.for_partitioned_graph(pg, 0)
    cost = CostModel.for_scale(SCALE)

    def run_all():
        serial = run_application(
            comp, pg, collection, config=EngineConfig(cost_model=cost)
        )
        # Makespan model: LPT schedule of the sequential run's per-timestep
        # walls onto W concurrent sub-clusters (contention-free, as a real
        # deployment would be).
        walls = serial.metrics.timestep_series()
        merge = serial.metrics.merge_wall()
        rows = []
        for w in WORKER_COUNTS:
            makespan = pipelined_makespan(walls, w, merge)
            rows.append(
                {
                    "schedule": "sequential (GoFFish)" if w == 1 else f"temporal x{w}",
                    "makespan_s": round(makespan, 4),
                    "speedup": round((sum(walls) + merge) / makespan, 2),
                }
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit(
        "ablation_temporal_parallel",
        render_table(rows, title="Ablation — temporal parallelism (HASH/WIKI, 6 partitions)"),
    )
    makespans = [r["makespan_s"] for r in rows]
    # Monotone improvement with more temporal workers.
    assert makespans[1] < makespans[0]
    assert makespans[2] < makespans[1]
    assert makespans[3] <= makespans[2]
    benchmark.extra_info["speedups"] = [r["speedup"] for r in rows]
