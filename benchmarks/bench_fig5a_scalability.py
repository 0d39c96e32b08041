"""Fig 5a (Section IV-B): total time for {HASH, MEME, TDSP} × {CARN, WIKI}
× {3, 6, 9} partitions.

Paper's shape:

* TDSP and MEME strong-scale from 3 → 6 partitions (1.67–1.88×, near the
  ideal 2×); CARN keeps scaling to 9 better than WIKI (whose edge cuts grow
  steeply with k);
* HASH scales the least — its timesteps do little compute, so communication
  and synchronization overheads dominate;
* TDSP on WIKI is unexpectedly *fast*: it converges after ~4 timesteps
  instead of processing all 50 (small-world convergence).

Data is served from GoFS stores (one per graph × k × workload) so instance
loading scales with the partition count, as on the real platform.

Simulated wall is host ``perf_counter`` time, and single runs of one cell
spread by tens of percent, so every (algo, graph, k) cell runs
``REPEATS`` times and reports the minimum; all runs are printed.  With the
array kernels every algorithm's wall is mostly GoFS load, which
strong-scales with k, so the second bullet above is reported but not
asserted, and neither is 3 → 6 scaling of the 4-timestep TDSP/WIKI cell
(EXPERIMENTS.md has the numbers and the deviations).

This bench runs at 20× the shared default scale — 400 k vertices by default
(``REPRO_BENCH_FIG5A_SCALE`` to override): with the per-superstep compute on
the kernel plane and dataset construction on the vectorized ingest plane,
the larger graphs are what keeps compute — not fixed per-superstep overhead
or ingest — the dominant term, matching the regime of the paper's figure
(see docs/scaling.md for the 400 k/2M regime).
"""

import os
import shutil

import pytest

from repro.algorithms import (
    HashtagAggregationComputation,
    MemeTrackingComputation,
    TDSPComputation,
)
from repro.analysis import render_table
from repro.core import EngineConfig, run_application
from repro.generators import paper_datasets
from repro.partition import MetisLikePartitioner, partition_graph
from repro.runtime import CostModel
from repro.storage import GoFS

from conftest import INSTANCES, SCALE, SEED, emit

#: Fig 5a's own (raised) scale — the kernel + ingest planes afford 20× the
#: shared default (400 k vertices), an order of magnitude over the old 40 k.
FIG5A_SCALE = int(os.environ.get("REPRO_BENCH_FIG5A_SCALE", str(20 * SCALE)))

#: Per-event overheads scaled to bench size (see CostModel.for_scale).
CONFIG = EngineConfig(cost_model=CostModel.for_scale(FIG5A_SCALE))

PARTITIONS = (3, 6, 9)
REPEATS = 3  #: runs per cell; the cell's time is their minimum
RESULTS: dict[tuple[str, str], dict[int, float]] = {}
RUNS: dict[tuple[str, str], dict[int, list[float]]] = {}
TIMESTEPS: dict[tuple[str, str], dict[int, int]] = {}


@pytest.fixture(scope="module")
def datasets():
    """Fig 5a datasets at the raised scale (shadows the session fixture)."""
    return paper_datasets(FIG5A_SCALE, INSTANCES, seed=SEED)


@pytest.fixture(scope="module")
def partitioned(datasets):
    """(graph name, k) → PartitionedGraph at FIG5A_SCALE."""
    cache: dict[tuple[str, int], object] = {}

    def get(name: str, k: int):
        key = (name, k)
        if key not in cache:
            cache[key] = partition_graph(
                datasets[name]["template"], k, MetisLikePartitioner(seed=SEED)
            )
        return cache[key]

    return get


@pytest.fixture(scope="module")
def stores(tmp_path_factory, datasets, partitioned):
    """Lazy GoFS store per (graph, workload, k), freed at teardown: the
    stores are ~4.6 GB at 400 k and pytest retains three tmp roots."""
    root = tmp_path_factory.mktemp("gofs")
    written: dict[tuple[str, str, int], str] = {}

    def get(graph: str, workload: str, k: int) -> str:
        key = (graph, workload, k)
        if key not in written:
            path = str(root / f"{graph}_{workload}_{k}")
            GoFS.write_collection(path, partitioned(graph, k), datasets[graph][workload])
            written[key] = path
        return written[key]

    yield get
    shutil.rmtree(root)


def make_computation(algo: str, pg):
    if algo == "TDSP":
        # Paper-faithful Algorithm 2: re-root from all of F each timestep.
        return TDSPComputation(0, halt_when_stalled=True, root_pruning=False)
    if algo == "MEME":
        return MemeTrackingComputation(0)
    return HashtagAggregationComputation.for_partitioned_graph(pg, 0)


def run_config(algo, graph, k, datasets, partitioned, stores):
    workload = "road" if algo == "TDSP" else "tweets"
    pg = partitioned(graph, k)
    views = GoFS.partition_views(stores(graph, workload, k))
    res = run_application(
        make_computation(algo, pg),
        pg,
        datasets[graph][workload],
        sources=views,
        config=CONFIG,
    )
    return res


@pytest.mark.parametrize("algo", ["HASH", "MEME", "TDSP"])
@pytest.mark.parametrize("graph", ["CARN", "WIKI"])
def test_fig5a_total_time(benchmark, algo, graph, datasets, partitioned, stores):
    def run_all():
        runs = {}
        steps = {}
        for k in PARTITIONS:
            results = [
                run_config(algo, graph, k, datasets, partitioned, stores)
                for _ in range(REPEATS)
            ]
            runs[k] = [res.total_wall_s for res in results]
            steps[k] = results[0].timesteps_executed
        return runs, steps

    runs, steps = benchmark.pedantic(run_all, rounds=1, iterations=1)
    times = {k: min(runs[k]) for k in PARTITIONS}
    RESULTS[(algo, graph)] = times
    RUNS[(algo, graph)] = runs
    TIMESTEPS[(algo, graph)] = steps
    benchmark.extra_info.update({f"sim_wall_{k}p": times[k] for k in PARTITIONS})

    # Per-config shape: 6 partitions beat 3 for the heavy algorithms.  Not
    # TDSP/WIKI: its 4 timesteps are ~0.25 s of mostly first-pack load, and
    # even min-of-3 inverted 3→6 in two of eight runs (EXPERIMENTS.md).
    if (algo, graph) in (("MEME", "CARN"), ("MEME", "WIKI"), ("TDSP", "CARN")):
        assert times[6] < times[3], f"{algo}/{graph} did not scale 3→6: {times}"


def test_fig5a_summary_table(benchmark, emit_json):
    """Render the figure's bars and check the cross-algorithm shape."""
    assert len(RESULTS) == 6, "run the per-config benches first"

    def build_rows():
        rows = []
        for (algo, graph), times in sorted(RESULTS.items()):
            rows.append(
                {
                    "algo": algo,
                    "graph": graph,
                    "3p (s)": round(times[3], 4),
                    "6p (s)": round(times[6], 4),
                    "9p (s)": round(times[9], 4),
                    "speedup 3→6": round(times[3] / times[6], 2),
                    "speedup 3→9": round(times[3] / times[9], 2),
                    "timesteps": TIMESTEPS[(algo, graph)][6],
                    **{
                        f"{k}p runs": " ".join(f"{w:.3f}" for w in RUNS[(algo, graph)][k])
                        for k in PARTITIONS
                    },
                }
            )
        return rows

    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    emit(
        "fig5a",
        render_table(
            rows,
            title=(
                f"Fig 5a — total simulated time, min of {REPEATS} runs "
                f"(scale={FIG5A_SCALE}, instances={INSTANCES})"
            ),
        ),
    )
    emit_json(
        "fig5a",
        {
            "fig5a_scale": FIG5A_SCALE,
            "repeats": REPEATS,
            "cells": {
                f"{algo}/{graph}": {
                    "sim_wall_s": {str(k): RESULTS[(algo, graph)][k] for k in PARTITIONS},
                    "runs_s": {str(k): RUNS[(algo, graph)][k] for k in PARTITIONS},
                    "timesteps": TIMESTEPS[(algo, graph)][6],
                }
                for algo, graph in sorted(RESULTS)
            },
        },
    )

    t = RESULTS
    # TDSP on WIKI converges in a few timesteps (paper: 4 of 50) and is far
    # cheaper than TDSP on CARN.
    assert TIMESTEPS[("TDSP", "WIKI")][6] <= 8
    assert TIMESTEPS[("TDSP", "CARN")][6] >= 25
    assert t[("TDSP", "WIKI")][6] < t[("TDSP", "CARN")][6]
    # Not asserted: "HASH scales least".  Its wall is GoFS load, which
    # strong-scales with k like everything else here, and its 3→6 speedup
    # overtook the heavy algorithms' in three of eight runs on each graph
    # (EXPERIMENTS.md, Fig 5a deviation).
