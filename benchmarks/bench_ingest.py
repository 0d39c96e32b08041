"""Ingest bench: end-to-end dataset build + partition walls, and the store.

Measures, per scale, the ingest wall (generate CARN+WIKI with their
collections, then partition both templates at k=9), and beside it the wall
of writing the CARN road collection into a GoFS store at k=9 and of
``GoFS.open`` of that store — what a rerun of ``tibsp run --gofs`` pays
instead of the ingest.

The 2M run reproduces the paper's dataset regime (CARN 1.96M / WIKI 2.39M
vertices).  Skip it with ``REPRO_BENCH_INGEST_FULL=0``.  (The first line of
``benchmarks/history/ingest.jsonl`` holds the last measurement against the
deleted scalar pipeline: 3.5× at 20k, 3.1× at 200k.)

History keys: each scale holds ``vectorized`` (the ingest wall),
``store_write_s`` and ``store_open_s``.  Lines before the pickled dataset
cache was deleted hold ``cache_cold`` / ``cache_warm`` / ``cache_speedup``
instead of the two store walls.

Unlike the figure benches this one *always* appends its envelope to
``benchmarks/history/ingest.jsonl``: the recorded walls are the PR-over-PR
ingest trajectory, not a side artifact.
"""

import os
import shutil
import time

from repro.generators import paper_datasets
from repro.partition import MetisLikePartitioner, partition_graph
from repro.storage import GoFS

from conftest import INSTANCES, SEED, bench_envelope, bench_history, emit

K = 9
SCALES = (20_000, 200_000)
FULL_SCALE = 2_000_000
RUN_FULL = os.environ.get("REPRO_BENCH_INGEST_FULL", "1") == "1"


def _ingest(scale: int) -> tuple[dict, dict]:
    """One end-to-end ingest: build the paper datasets, partition both.
    Returns the walls and the CARN ``(pg, road collection)``."""
    t0 = time.perf_counter()
    data = paper_datasets(scale, INSTANCES, seed=SEED)
    generate = time.perf_counter() - t0
    t0 = time.perf_counter()
    pgs = {
        name: partition_graph(data[name]["template"], K, MetisLikePartitioner(seed=SEED))
        for name in ("CARN", "WIKI")
    }
    partition = time.perf_counter() - t0
    walls = {
        "generate_s": round(generate, 4),
        "partition_s": round(partition, 4),
        "total_s": round(generate + partition, 4),
    }
    return walls, (pgs["CARN"], data["CARN"]["road"])


def test_ingest_walls(tmp_path):
    results: dict = {"k": K, "instances": INSTANCES, "scales": {}}
    lines = [
        f"Ingest walls (generate + partition CARN+WIKI, k={K}, {INSTANCES} instances); "
        f"the CARN road store at k={K}",
        f"{'scale':>9}  {'ingest':>8}  {'write':>7}  {'open':>7}",
    ]
    for scale in SCALES + ((FULL_SCALE,) if RUN_FULL else ()):
        ingest, (pg, road) = _ingest(scale)
        root = tmp_path / str(scale)
        t0 = time.perf_counter()
        GoFS.write_collection(root, pg, road)
        write = time.perf_counter() - t0
        t0 = time.perf_counter()
        opened, collection, views = GoFS.open(root)
        open_s = time.perf_counter() - t0
        assert opened.fingerprint(len(collection)) == pg.fingerprint(len(road))
        assert len(views) == K
        shutil.rmtree(root)
        results["scales"][str(scale)] = {
            "vectorized": ingest,  # key kept so history lines stay comparable
            "store_write_s": round(write, 4),
            "store_open_s": round(open_s, 4),
        }
        lines.append(
            f"{scale:>9}  {ingest['total_s']:>7.2f}s  {write:>6.2f}s  {open_s:>6.3f}s"
        )

    emit("ingest", "\n".join(lines))
    bench_history("ingest", bench_envelope("ingest", results))
