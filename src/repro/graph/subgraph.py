"""Subgraph: the unit of computation in the subgraph-centric model.

Section II-C: a partitioned graph's *subgraphs* are the maximal sets of
vertices weakly connected through only *local* edges (edges with both
endpoints in the same partition).  Each subgraph acts as a meta-vertex in the
communication phase; *remote* edges (endpoints in different partitions)
connect subgraphs and carry messages between them.

A :class:`Subgraph` is pure topology, built once when the collection is
partitioned, and reused for every timestep/instance — attribute values come
from the :class:`~repro.graph.instance.GraphInstance` handed to the user's
``compute``.  Local vertices are renumbered ``0..k-1`` so per-subgraph
algorithms can use dense arrays; dense *global* edge indices are retained so
instance edge columns can be gathered directly.
"""

from __future__ import annotations

import numpy as np

from .._value import Value
from ..kernels.csr import slot_sources

__all__ = ["RemoteEdges", "Subgraph"]


class RemoteEdges(Value):
    """Columnar bundle of a subgraph's outgoing remote (cut) edges.

    All arrays have equal length; row ``i`` describes one remote edge: the
    local index of its source vertex inside this subgraph, the global
    (template) index, subgraph and partition of its destination, and its
    dense template edge index (for attribute lookup).
    """

    __slots__ = ("src_local", "dst_global", "dst_subgraph", "dst_partition", "edge_index")

    def __init__(
        self, src_local: np.ndarray, dst_global: np.ndarray, dst_subgraph: np.ndarray,
        dst_partition: np.ndarray, edge_index: np.ndarray,
    ) -> None:
        self.src_local, self.dst_global, self.dst_subgraph = src_local, dst_global, dst_subgraph
        self.dst_partition, self.edge_index = dst_partition, edge_index

    def __len__(self) -> int:
        return len(self.src_local)

    @staticmethod
    def empty() -> "RemoteEdges":
        z = np.empty(0, dtype=np.int64)
        return RemoteEdges(z, z.copy(), z.copy(), z.copy(), z.copy())


class Subgraph:
    """A weakly connected component of a partition's local-edge graph.

    Parameters
    ----------
    subgraph_id:
        Globally unique id across all partitions.
    partition_id:
        The partition (host) owning this subgraph.
    vertices:
        Sorted array of global (template) vertex indices.
    indptr, indices, edge_index:
        Local CSR adjacency over local vertex numbers ``0..k-1``:
        ``indices`` holds *local* destination numbers, ``edge_index`` the
        corresponding dense template edge indices.
    remote:
        Outgoing remote edges (see :class:`RemoteEdges`).
    """

    __slots__ = (
        "subgraph_id",
        "partition_id",
        "vertices",
        "indptr",
        "indices",
        "edge_index",
        "remote",
        "in_neighbor_subgraphs",
        "_local_table",
        "_slot_src",
    )

    def __init__(
        self,
        subgraph_id: int,
        partition_id: int,
        vertices: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
        edge_index: np.ndarray,
        remote: RemoteEdges | None = None,
        in_neighbor_subgraphs: np.ndarray | None = None,
    ) -> None:
        self.subgraph_id = int(subgraph_id)
        self.partition_id = int(partition_id)
        self.vertices = np.asarray(vertices, dtype=np.int64)
        if not np.all(np.diff(self.vertices) > 0):
            raise ValueError("subgraph vertices must be strictly sorted global indices")
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.edge_index = np.asarray(edge_index, dtype=np.int64)
        if len(self.indptr) != len(self.vertices) + 1:
            raise ValueError("indptr length must be num local vertices + 1")
        self.remote = remote if remote is not None else RemoteEdges.empty()
        #: Subgraphs with a remote edge INTO this one.  Equals the outgoing
        #: neighbor set on undirected templates; differs on directed ones,
        #: where algorithms needing bidirectional meta-graph flow (e.g. WCC)
        #: must message both sets.
        self.in_neighbor_subgraphs = (
            np.empty(0, dtype=np.int64)
            if in_neighbor_subgraphs is None
            else np.asarray(in_neighbor_subgraphs, dtype=np.int64)
        )
        self._local_table: np.ndarray | None = None
        self._slot_src: np.ndarray | None = None

    def __getstate__(self) -> tuple:
        # Lazy tables stay out of pickles; whoever unpickles rebuilds them.
        lazy = ("_local_table", "_slot_src")
        return None, {s: None if s in lazy else getattr(self, s) for s in self.__slots__}

    # -- size ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of local vertices in this subgraph."""
        return len(self.vertices)

    @property
    def num_local_edges(self) -> int:
        """Number of local adjacency entries (undirected edges count twice)."""
        return len(self.indices)

    @property
    def num_remote_edges(self) -> int:
        """Number of outgoing remote (cut) edges."""
        return len(self.remote)

    # -- vertex numbering --------------------------------------------------------

    def _local(self, global_v: int | np.ndarray) -> np.ndarray:
        """Local number(s) of global vertex index(es), -1 where not present."""
        table = self._local_table
        if table is None:
            # Lazy direct-address table: one gather per translation instead
            # of a binary search — this sits on the per-message fold path.
            size = int(self.vertices[-1]) + 1 if len(self.vertices) else 0
            table = self._local_table = np.full(size, -1, dtype=np.int64)
            table[self.vertices] = np.arange(len(self.vertices), dtype=np.int64)
        arr = np.asarray(global_v, dtype=np.int64)
        inside = (arr >= 0) & (arr < len(table))
        if inside.all():
            return table[arr]
        pos = np.full(arr.shape, -1, dtype=np.int64)
        pos[inside] = table[arr[inside]]
        return pos

    def local_of(self, global_v: int | np.ndarray) -> int | np.ndarray:
        """Local number(s) of global vertex index(es); raises if not present."""
        pos = self._local(global_v)
        if bool((pos < 0).any()):
            raise KeyError(f"vertex {global_v!r} not in subgraph {self.subgraph_id}")
        return pos if isinstance(global_v, np.ndarray) else int(pos)

    def contains(self, global_v: int | np.ndarray) -> bool | np.ndarray:
        """Membership test for global vertex index(es)."""
        ok = self._local(global_v) >= 0
        return ok if isinstance(global_v, np.ndarray) else bool(ok)

    def global_of(self, local_v: int | np.ndarray) -> int | np.ndarray:
        """Global template index(es) of local vertex number(s)."""
        out = self.vertices[local_v]
        return out if isinstance(local_v, np.ndarray) else int(out)

    # -- adjacency ---------------------------------------------------------------

    @property
    def slot_src(self) -> np.ndarray:
        """Local source vertex of every local CSR slot, built on first use."""
        if self._slot_src is None:
            self._slot_src = slot_sources(self.indptr)
        return self._slot_src

    @property
    def neighbor_subgraphs(self) -> np.ndarray:
        """Distinct subgraph ids reachable over one outgoing remote edge."""
        return np.unique(self.remote.dst_subgraph)

    @property
    def all_neighbor_subgraphs(self) -> np.ndarray:
        """Union of outgoing and incoming remote-neighbor subgraphs."""
        return np.union1d(self.neighbor_subgraphs, self.in_neighbor_subgraphs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Subgraph(id={self.subgraph_id}, part={self.partition_id}, "
            f"|V|={self.num_vertices}, local_adj={self.num_local_edges}, "
            f"remote={self.num_remote_edges})"
        )
