"""Graph partitioning substrate (paper Section II-C, IV-A).

Partitioners map vertices to hosts; :func:`~repro.partition.subgraphs.decompose`
then discovers each partition's subgraphs (weakly connected components over
local edges) and builds the :class:`~repro.partition.base.PartitionedGraph`
the TI-BSP engine executes on.

The default :class:`MetisLikePartitioner` is a from-scratch multilevel k-way
partitioner standing in for METIS (see DESIGN.md, substitutions).
"""

import numpy as np

from ..graph.template import GraphTemplate
from .base import Partition, PartitionedGraph, Partitioner, validate_assignment
from .bfsp import BFSPartitioner
from .hashp import HashPartitioner
from .metis_like import MetisLikePartitioner
from .stats import PartitionStats, compute_stats, edge_cut_fraction
from .subgraphs import decompose, subgraph_labels

__all__ = [
    "Partition",
    "PartitionedGraph",
    "Partitioner",
    "validate_assignment",
    "BFSPartitioner",
    "HashPartitioner",
    "MetisLikePartitioner",
    "PartitionStats",
    "compute_stats",
    "edge_cut_fraction",
    "decompose",
    "subgraph_labels",
    "partition_graph",
]


def _template_digest(template: GraphTemplate) -> str:
    """Content hash of a template's topology (for partition cache keys)."""
    import hashlib

    h = hashlib.sha256()
    h.update(f"{template.num_vertices}:{int(template.directed)}".encode())
    h.update(np.ascontiguousarray(template.edge_src, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(template.edge_dst, dtype=np.int64).tobytes())
    return h.hexdigest()


def partition_graph(
    template: GraphTemplate,
    num_partitions: int,
    partitioner: Partitioner | None = None,
    *,
    cache=None,
) -> PartitionedGraph:
    """One-call convenience: assign vertices and decompose into subgraphs.

    Uses :class:`MetisLikePartitioner` when no partitioner is given, matching
    the paper's METIS setup.  ``cache`` (a
    :class:`~repro.generators.cache.DatasetCache`) memoizes the decomposed
    :class:`PartitionedGraph` keyed on the template's topology digest, the
    partition count, and the partitioner's configuration — a hit skips both
    the assignment and the subgraph discovery.
    """
    partitioner = partitioner or MetisLikePartitioner()

    def compute() -> PartitionedGraph:
        assignment = np.asarray(partitioner.assign(template, num_partitions))
        return decompose(template, assignment, num_partitions)

    if cache is not None:
        params = {
            "template": _template_digest(template),
            "num_partitions": int(num_partitions),
            "partitioner": type(partitioner).__name__,
            "config": {
                k: v
                for k, v in sorted(vars(partitioner).items())
                if isinstance(v, (int, float, bool, str))
            },
        }
        return cache.get_or_build("partition", params, compute)
    return compute()
