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
# arrays (int64 bytes), recorded at the last commit whose partitioner went
# through scipy (db2e0b5).  A change to matching, contraction, refinement or
# component numbering moves them; nothing else may.
PINNED = {
    ("CARN", 20_000, 2, 1): ("27721d3b6ecda67b", "9d993e45083eb53f", 3),
    ("CARN", 20_000, 2, 7): ("2bb3e5134cf27ec2", "c57f3d12dbf0580c", 3),
    ("CARN", 200_000, 6, 1): ("45115e6d7607b716", "22eb564acfdcccef", 8),
    ("CARN", 200_000, 6, 7): ("eff81feddce2bdbb", "c3d8cca46f76fcb2", 13),
    ("WIKI", 100_000, 6, 1): ("2e567b7c4e8ea035", "1c9c30b099113a82", 154),
    ("WIKI", 100_000, 6, 7): ("79158319caa98add", "53d1573f3a9259db", 214),
    ("WIKI", 200_000, 2, 1): ("c5ebe1194356a10d", "c5ebe1194356a10d", 2),
    ("WIKI", 200_000, 2, 7): ("722d78473f265183", "722d78473f265183", 2),
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
# byte-identical to the format-3 store these pinned before.
PINNED_STORES = {"CARN": "9696a9bfd6cef228", "WIKI": "46f3a9262ef50d35"}


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
