"""Partitioning statistics: edge cuts, balance, subgraph distribution.

Provides the quantities the paper reports or discusses:

* **edge-cut percentage** (the Table 2 metric: % of edges whose endpoints lie
  in different partitions);
* **vertex balance** across partitions;
* **subgraph size distribution** per partition — Section IV-D observes that
  partitioning "produces a long tail of small subgraphs in each partition and
  one large subgraph dominates", which motivates the rebalancing discussion.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..graph.template import GraphTemplate
from .base import PartitionedGraph

__all__ = ["PartitionStats", "edge_cut_fraction", "compute_stats"]


def edge_cut_fraction(template: GraphTemplate, assignment: np.ndarray) -> float:
    """Fraction of template edges cut by an assignment (Table 2's metric)."""
    assignment = np.asarray(assignment)
    if template.num_edges == 0:
        return 0.0
    cut = assignment[template.edge_src] != assignment[template.edge_dst]
    return float(cut.mean())


class PartitionStats(NamedTuple):
    """Summary of one partitioning of one template."""

    name: str
    num_partitions: int
    num_vertices: int
    num_edges: int
    edge_cut_fraction: float
    vertex_counts: tuple[int, ...]
    balance: float  #: max partition size / ideal size (1.0 = perfect)
    num_subgraphs: int
    subgraphs_per_partition: tuple[int, ...]
    largest_subgraph_fraction: float  #: |largest subgraph| / |V|

    @property
    def edge_cut_percent(self) -> float:
        """Edge cut as a percentage, as printed in Table 2."""
        return 100.0 * self.edge_cut_fraction

    def as_row(self) -> dict:
        """Flat dict for report tables."""
        return {
            "graph": self.name,
            "partitions": self.num_partitions,
            "edge_cut_%": round(self.edge_cut_percent, 3),
            "balance": round(self.balance, 3),
            "subgraphs": self.num_subgraphs,
            "largest_subgraph_%": round(100.0 * self.largest_subgraph_fraction, 1),
        }


def compute_stats(pg: PartitionedGraph) -> PartitionStats:
    """Compute :class:`PartitionStats` for a partitioned graph."""
    template = pg.template
    k = pg.num_partitions
    counts = np.zeros(k, dtype=np.int64)
    np.add.at(counts, pg.vertex_partition, 1)
    ideal = template.num_vertices / k if k else 0.0
    balance = float(counts.max() / ideal) if ideal else 0.0
    sg_sizes = np.asarray([sg.num_vertices for sg in pg.subgraphs], dtype=np.int64)
    largest = float(sg_sizes.max() / template.num_vertices) if len(sg_sizes) and template.num_vertices else 0.0
    return PartitionStats(
        name=template.name,
        num_partitions=k,
        num_vertices=template.num_vertices,
        num_edges=template.num_edges,
        edge_cut_fraction=edge_cut_fraction(template, pg.vertex_partition),
        vertex_counts=tuple(int(c) for c in counts),
        balance=balance,
        num_subgraphs=pg.num_subgraphs,
        subgraphs_per_partition=tuple(p.num_subgraphs for p in pg.partitions),
        largest_subgraph_fraction=largest,
    )
