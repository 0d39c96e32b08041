"""Ingest bench: end-to-end dataset build + partition walls.

Measures, per scale, the ingest wall (generate CARN+WIKI with their
collections, then partition both templates at k=9): uncached, and cache
cold (build + store) vs warm (load) through a :class:`DatasetCache`.

The 2M run reproduces the paper's dataset regime (CARN 1.96M / WIKI 2.39M
vertices).  Skip it with ``REPRO_BENCH_INGEST_FULL=0``.  (The first line of
``benchmarks/history/ingest.jsonl`` holds the last measurement against the
deleted scalar pipeline: 3.5× at 20k, 3.1× at 200k.)

Unlike the figure benches this one *always* appends its envelope to
``benchmarks/history/ingest.jsonl``: the recorded walls and speedups are
the PR-over-PR ingest trajectory, not a side artifact.
"""

import os
import time

from repro.generators import DatasetCache, paper_datasets
from repro.partition import MetisLikePartitioner, partition_graph

from conftest import INSTANCES, SEED, bench_envelope, bench_history, emit

K = 9
SCALES = (20_000, 200_000)
FULL_SCALE = 2_000_000
RUN_FULL = os.environ.get("REPRO_BENCH_INGEST_FULL", "1") == "1"


def _cold_ingest(scale: int, *, cache=None) -> dict:
    """One end-to-end ingest: build the paper datasets, partition both."""
    t0 = time.perf_counter()
    data = paper_datasets(scale, INSTANCES, seed=SEED, cache=cache)
    generate = time.perf_counter() - t0
    t0 = time.perf_counter()
    for name in ("CARN", "WIKI"):
        partition_graph(
            data[name]["template"], K, MetisLikePartitioner(seed=SEED), cache=cache
        )
    partition = time.perf_counter() - t0
    return {
        "generate_s": round(generate, 4),
        "partition_s": round(partition, 4),
        "total_s": round(generate + partition, 4),
    }


def test_ingest_walls(tmp_path):
    results: dict = {"k": K, "instances": INSTANCES, "scales": {}}
    lines = [
        f"Ingest walls (generate + partition CARN+WIKI, k={K}, "
        f"{INSTANCES} instances)",
        f"{'scale':>9}  {'uncached':>9}  {'warm':>7}  {'cache x':>7}",
    ]
    for scale in SCALES + ((FULL_SCALE,) if RUN_FULL else ()):
        uncached = _cold_ingest(scale)
        cache = DatasetCache(tmp_path / str(scale))
        cold = _cold_ingest(scale, cache=cache)
        warm = _cold_ingest(scale, cache=cache)
        cache_speedup = cold["total_s"] / warm["total_s"]
        results["scales"][str(scale)] = {
            "vectorized": uncached,  # key kept so history lines stay comparable
            "cache_cold": cold,
            "cache_warm": warm,
            "cache_speedup": round(cache_speedup, 2),
        }
        lines.append(
            f"{scale:>9}  {uncached['total_s']:>8.2f}s  {warm['total_s']:>6.2f}s  "
            f"{cache_speedup:>6.1f}x"
        )
        assert warm["total_s"] < cold["total_s"]

    emit("ingest", "\n".join(lines))
    bench_history("ingest", bench_envelope("ingest", results))
