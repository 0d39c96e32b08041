"""Partitioning interfaces and the partitioned-collection container.

Section II-C: a graph ``G = ⟨V, E⟩`` is split into ``n`` partitions such that
every vertex lives in exactly one partition; edges with both endpoints in one
partition are *local*, edges spanning two partitions are *remote*.
Partitioning aims at equal vertex counts and a minimal number of remote
edges.  One partition is placed per host/VM (Section IV-A).

The output of partitioning is a :class:`PartitionedGraph` that also records
the subgraph decomposition (weakly connected components over local edges) —
see :mod:`repro.partition.subgraphs` for the construction.
"""

from __future__ import annotations

import zlib
from typing import Protocol

import numpy as np

from .._value import Value
from ..graph.subgraph import Subgraph
from ..graph.template import GraphTemplate

__all__ = ["Partitioner", "Partition", "PartitionedGraph", "validate_assignment"]


class Partitioner(Protocol):
    """Strategy interface: produce a vertex→partition assignment."""

    def assign(self, template: GraphTemplate, num_partitions: int) -> np.ndarray:
        """Return an array of length ``|V̂|`` with values in ``[0, num_partitions)``."""
        ...


def validate_assignment(template: GraphTemplate, assignment: np.ndarray, num_partitions: int) -> np.ndarray:
    """Normalize and sanity-check a vertex→partition assignment array."""
    arr = np.asarray(assignment, dtype=np.int64)
    if arr.shape != (template.num_vertices,):
        raise ValueError(
            f"assignment has shape {arr.shape}, expected ({template.num_vertices},)"
        )
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    if len(arr) and (arr.min() < 0 or arr.max() >= num_partitions):
        raise ValueError("assignment values out of range")
    return arr


class Partition(Value):
    """All subgraphs placed on one host."""

    __slots__ = ("partition_id", "subgraphs")

    def __init__(self, partition_id: int, subgraphs: list[Subgraph] | None = None) -> None:
        self.partition_id = partition_id
        self.subgraphs = [] if subgraphs is None else subgraphs

    @property
    def vertices(self) -> np.ndarray:
        """Global indices of every vertex in this partition (sorted)."""
        if not self.subgraphs:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate([sg.vertices for sg in self.subgraphs]))

    @property
    def num_vertices(self) -> int:
        return sum(sg.num_vertices for sg in self.subgraphs)

    @property
    def num_subgraphs(self) -> int:
        return len(self.subgraphs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Partition(id={self.partition_id}, subgraphs={self.num_subgraphs}, "
            f"|V|={self.num_vertices})"
        )


class PartitionedGraph:
    """A template partitioned into hosts and decomposed into subgraphs.

    Attributes
    ----------
    template:
        The underlying :class:`GraphTemplate`.
    vertex_partition:
        Partition id per global vertex index.
    vertex_subgraph:
        Global subgraph id per global vertex index.
    partitions:
        One :class:`Partition` per id, each holding its subgraphs.
    subgraphs:
        Flat list indexed by global subgraph id.
    """

    __slots__ = ("template", "vertex_partition", "vertex_subgraph", "partitions", "subgraphs")

    def __init__(
        self,
        template: GraphTemplate,
        vertex_partition: np.ndarray,
        vertex_subgraph: np.ndarray,
        partitions: list[Partition],
        subgraphs: list[Subgraph],
    ) -> None:
        self.template = template
        self.vertex_partition = vertex_partition
        self.vertex_subgraph = vertex_subgraph
        self.partitions = partitions
        self.subgraphs = subgraphs

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    @property
    def num_subgraphs(self) -> int:
        return len(self.subgraphs)

    def fingerprint(self, num_timesteps: int) -> dict[str, int]:
        """What a GoFS store written for this partitioning of a
        ``num_timesteps``-long collection records, and a run over it is held
        to.  Another template, seed, k or partitioner each change the vertex
        -> subgraph array, so its crc32 (0.5 ms at 200k) stands for them."""
        crc = zlib.crc32(np.ascontiguousarray(self.vertex_subgraph, dtype=np.int64))
        return {
            "num_vertices": self.template.num_vertices,
            "num_edges": self.template.num_edges,
            "num_timesteps": int(num_timesteps),
            "num_partitions": self.num_partitions,
            "vertex_subgraph_crc32": crc,
        }

    def subgraph(self, subgraph_id: int) -> Subgraph:
        """Subgraph by global id."""
        return self.subgraphs[subgraph_id]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PartitionedGraph({self.template.name!r}, parts={self.num_partitions}, "
            f"subgraphs={self.num_subgraphs})"
        )
