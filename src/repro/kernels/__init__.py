"""Array-native frontier kernels over CSR adjacency (the "kernel plane").

The algorithm classes in :mod:`repro.algorithms` are thin TI-BSP drivers;
the per-superstep work they do inside one subgraph — settling a shortest
path frontier, expanding a gated BFS, hooking components together,
scanning tweet containers — is delegated to the kernels here, which operate
on whole frontiers as numpy arrays instead of one vertex at a time.

Every kernel is a pure function over the CSR arrays that
:class:`~repro.graph.template.GraphTemplate` and
:class:`~repro.graph.subgraph.Subgraph` already carry (``indptr``,
``indices``, ``edge_index``), so the same code path serves template-wide
reference checks and per-subgraph distributed supersteps.  Results are
bit-identical to the single-process oracles in
:mod:`repro.algorithms.reference` (Dijkstra, BFS, per-tweet scans) — the
equivalence suite under ``tests/kernels/`` asserts this — because each
kernel computes the same least fixpoint with the same float operations,
only batched.
"""

from .aggregate import contains_in_cells, count_equal, count_equal_in_cells, flatten_cells
from .components import components, csr_components
from .csr import gather_ranges, index_mask, slot_sources, sorted_unique
from .frontier import expand_to_fixpoint, open_boundary, relax_to_fixpoint
from .pagerank import local_incoming, push_contributions, remote_flow_batches
from .scatter import group_min_pairs, group_unique_pairs

__all__ = [
    "gather_ranges",
    "index_mask",
    "slot_sources",
    "sorted_unique",
    "relax_to_fixpoint",
    "expand_to_fixpoint",
    "open_boundary",
    "components",
    "csr_components",
    "flatten_cells",
    "count_equal",
    "count_equal_in_cells",
    "contains_in_cells",
    "push_contributions",
    "local_incoming",
    "remote_flow_batches",
    "group_min_pairs",
    "group_unique_pairs",
]
