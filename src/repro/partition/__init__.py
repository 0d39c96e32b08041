"""Graph partitioning substrate (paper Section II-C, IV-A).

Partitioners map vertices to hosts; :func:`~repro.partition.subgraphs.decompose`
then discovers each partition's subgraphs (weakly connected components over
local edges) and builds the :class:`~repro.partition.base.PartitionedGraph`
the TI-BSP engine executes on.

The default :class:`MetisLikePartitioner` is a from-scratch multilevel k-way
partitioner standing in for METIS (see DESIGN.md, substitutions).
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".base": ("Partition", "PartitionedGraph", "Partitioner", "validate_assignment"),
    ".bfsp": ("BFSPartitioner",),
    ".hashp": ("HashPartitioner",),
    ".metis_like": ("MetisLikePartitioner", "partition_graph"),
    ".stats": ("PartitionStats", "compute_stats", "edge_cut_fraction"),
    ".subgraphs": ("decompose", "subgraph_labels"),
})
