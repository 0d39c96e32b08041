"""Partitions pinned: the assignments a seed gives are part of every digest
and every ``core.*`` count downstream, so a change to the partitioner's
plumbing (scipy out, numpy in) must leave them byte-identical.  What ingest
writes — partition, decompose, slices — is pinned too, as store bytes."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.generators import (
    road_latency_collection,
    road_network,
    smallworld_network,
    tweet_collection,
)
from repro.partition import MetisLikePartitioner, partition_graph
from repro.storage import GoFS

# sha256 of partition_graph(...)'s vertex->partition and vertex->subgraph
# arrays (int64 bytes).  Recorded at the last commit whose partitioner went
# through scipy (db2e0b5) and re-recorded once when refinement became Jet
# hill-climbing with one piece per partition: every cell is now k subgraphs,
# so the two arrays hash alike.  A change to matching, contraction,
# refinement or component numbering moves them; nothing else may.
PINNED = {
    ("CARN", 20_000, 2, 1): ("fbc57b7b471c1a76", "fbc57b7b471c1a76", 2),
    ("CARN", 20_000, 2, 7): ("13f79c1b65c2e5d4", "13f79c1b65c2e5d4", 2),
    ("CARN", 200_000, 6, 1): ("693dd134e2a9563a", "693dd134e2a9563a", 6),
    ("CARN", 200_000, 6, 7): ("332d2d4d2e4986a9", "332d2d4d2e4986a9", 6),
    ("WIKI", 100_000, 6, 1): ("1f849fa6928dda53", "1f849fa6928dda53", 6),
    ("WIKI", 100_000, 6, 7): ("08a8b946e979ef17", "08a8b946e979ef17", 6),
    ("WIKI", 200_000, 2, 1): ("32b9c19733046a08", "32b9c19733046a08", 2),
    ("WIKI", 200_000, 2, 7): ("59edf69c848cc0e3", "59edf69c848cc0e3", 2),
}


def _sha(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.int64).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("cell", PINNED, ids=lambda c: "-".join(map(str, c)))
def test_partitions_are_pinned(cell):
    graph, n, k, seed = cell
    generate = road_network if graph == "CARN" else smallworld_network
    pg = partition_graph(generate(n, seed=seed), k, MetisLikePartitioner(seed=seed))
    got = (_sha(pg.vertex_partition), _sha(pg.vertex_subgraph), pg.num_subgraphs)
    assert got == PINNED[cell]


# sha256 over the sorted relative names and bytes of every file of a
# ``GoFS.write_collection`` store (k=3, seed 1, 2000 vertices, 12
# instances).  Re-recorded once for slice format 4, which moved each bin's
# rows out of its slices into a rows file and the template into a GSL2
# file: every array in the store — template, rows, attribute columns — is
# byte-identical to the format-3 store these pinned before.  Re-recorded
# again with the one-piece partitioner, which moved the partition: the
# rows files and slices follow it.  Re-recorded for slice format 5 (were
# CARN 29517ad9a21b4256, WIKI 4857f95e96277e22): the CARN store differs only
# in its manifest (slice_format) and template (schemas as JSON, tweets
# "ragged"), every rows file and slice byte-identical; the WIKI slices store
# the tweets as int64 offsets and values instead of a pickle.  Re-recorded
# for manifest format 2 (were CARN e03ce80e7a834624, WIKI bc9d8bb7ed0b234d):
# the store gained `assignment.gsl` and the manifest `format_version: 2` and
# `dataset`; every other file, and every other manifest field, is
# byte-identical.  Re-recorded for slice format 6 (were CARN
# 781425fef300a6e1, WIKI 8a04d4e6f5c46e5d): the CARN store differs only in
# its manifest's `slice_format`; the WIKI slices store the tweets as one
# (key, value) pair per hashtag instead of per-row offsets (414,126 ->
# 227,393 B), every other WIKI file but the manifest byte-identical.
PINNED_STORES = {"CARN": "b20b30c19b33154a", "WIKI": "f1b6e15f37673489"}


@pytest.mark.parametrize("graph", PINNED_STORES)
def test_store_bytes_are_pinned(graph, tmp_path):
    if graph == "CARN":
        tpl = road_network(2000, seed=1)
        collection = road_latency_collection(tpl, 12, seed=1)
    else:
        tpl = smallworld_network(2000, seed=1)
        collection = tweet_collection(tpl, 12, hit_probability=0.1, seeds_per_meme=20, seed=1)
    pg = partition_graph(tpl, 3, MetisLikePartitioner(seed=1))
    GoFS.write_collection(tmp_path, pg, collection)
    h = hashlib.sha256()
    for path in sorted(p for p in Path(tmp_path).rglob("*") if p.is_file()):
        h.update(path.relative_to(tmp_path).as_posix().encode())
        h.update(path.read_bytes())
    assert h.hexdigest()[:16] == PINNED_STORES[graph]
