"""Partitions pinned: the assignments a seed gives are part of every digest
and every ``core.*`` count downstream, so a change to the partitioner's
plumbing (scipy out, numpy in) must leave them byte-identical."""

import hashlib

import numpy as np
import pytest

from repro.generators import road_network, smallworld_network
from repro.partition import MetisLikePartitioner, partition_graph

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
