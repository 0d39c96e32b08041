"""Array-native frontier kernels over CSR adjacency (the "kernel plane").

The algorithm classes in :mod:`repro.algorithms` are thin TI-BSP drivers;
the per-superstep work they do inside one subgraph — settling a shortest
path frontier, expanding a gated BFS, hooking components together,
scanning a ragged tweet column — is delegated to the kernels here, which operate
on whole frontiers as numpy arrays instead of one vertex at a time.

Every kernel is a pure function over the CSR arrays that
:class:`~repro.graph.template.GraphTemplate` and
:class:`~repro.graph.subgraph.Subgraph` already carry (``indptr``,
``indices``, ``edge_index``), so the same code path serves template-wide
reference checks and per-subgraph distributed supersteps.  Results are
bit-identical to the single-process oracles in
:mod:`repro.algorithms.reference` (Dijkstra, BFS, per-cell tweet walks) — the
equivalence suite under ``tests/kernels/`` asserts this — because each
kernel computes the same least fixpoint with the same float operations,
only batched.
"""

from .. import _lazy_exports

# Imported here, not on first access: the function shadows its submodule, and
# importing the submodule later would rebind the name to the module.
from .components import components, csr_components

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".csr": ("gather_ranges", "index_mask", "slot_sources", "sorted_unique"),
    ".frontier": ("relax_to_fixpoint", "expand_to_fixpoint", "open_boundary"),
    ".aggregate": ("contains", "count"),
    ".pagerank": ("push_contributions", "local_incoming", "remote_flow_batches"),
    ".scatter": ("combine_min_labels", "group_min_pairs", "group_unique_pairs"),
})
__all__ += ["components", "csr_components"]
