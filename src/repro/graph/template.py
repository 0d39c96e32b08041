"""Graph template: the time-invariant topology of a time-series graph.

Section II-A: a template ``Ĝ = ⟨V̂, Ê⟩`` fixes the vertex/edge sets and the
attribute *schemas*; instances later attach attribute *values*.  Topology is
stored once, in CSR form, and shared (never copied) by every instance — this
is the core storage saving that motivates the time-series graph model.

Vertices and edges carry stable external ``id``s (the paper's ``id``
attribute) but algorithms address them by dense index (``0..n-1`` /
``0..m-1``) so that attribute columns can be sliced vectorially.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .attributes import AttributeSchema

__all__ = ["GraphTemplate"]


class GraphTemplate:
    """Immutable topology + attribute schema shared by all graph instances.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``; vertices are the dense indices ``0..n-1``.
    edge_src, edge_dst:
        Arrays of length ``m`` giving each edge's endpoints by vertex index.
        Edge ``j`` is the dense edge index ``j``.
    directed:
        If ``False``, each stored edge represents an undirected edge and the
        adjacency structure contains it in both directions (with the same
        edge index, so instance edge-attribute columns have one row per
        undirected edge — matching the paper's road networks where a road's
        travel time is direction-independent).
    vertex_ids, edge_ids:
        Optional external identifiers (default: identity).
    vertex_schema, edge_schema:
        Attribute schemas for instances (excluding the reserved ``id``).
    name:
        Human-readable template name (e.g. ``"CARN"``).
    """

    __slots__ = (
        "name",
        "num_vertices",
        "num_edges",
        "directed",
        "edge_src",
        "edge_dst",
        "vertex_ids",
        "edge_ids",
        "vertex_schema",
        "edge_schema",
        "_adj_indptr",
        "_adj_indices",
        "_adj_edges",
    )

    def __init__(
        self,
        num_vertices: int,
        edge_src: Sequence[int] | np.ndarray,
        edge_dst: Sequence[int] | np.ndarray,
        *,
        directed: bool = False,
        vertex_ids: np.ndarray | None = None,
        edge_ids: np.ndarray | None = None,
        vertex_schema: AttributeSchema | None = None,
        edge_schema: AttributeSchema | None = None,
        name: str = "graph",
    ) -> None:
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        src = np.asarray(edge_src, dtype=np.int64)
        dst = np.asarray(edge_dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("edge_src and edge_dst must be 1-D arrays of equal length")
        m = len(src)
        if m and (src.min() < 0 or dst.min() < 0 or src.max() >= num_vertices or dst.max() >= num_vertices):
            raise ValueError("edge endpoints out of range")

        self.name = name
        self.num_vertices = int(num_vertices)
        self.num_edges = int(m)
        self.directed = bool(directed)
        self.edge_src = src
        self.edge_dst = dst
        self.vertex_ids = (
            np.arange(num_vertices, dtype=np.int64)
            if vertex_ids is None
            else np.asarray(vertex_ids, dtype=np.int64)
        )
        if self.vertex_ids.shape != (num_vertices,):
            raise ValueError("vertex_ids length mismatch")
        self.edge_ids = (
            np.arange(m, dtype=np.int64) if edge_ids is None else np.asarray(edge_ids, dtype=np.int64)
        )
        if self.edge_ids.shape != (m,):
            raise ValueError("edge_ids length mismatch")
        self.vertex_schema = vertex_schema or AttributeSchema()
        self.edge_schema = edge_schema or AttributeSchema()

        # Built on first use (``adjacency``): a template loaded only to back
        # GoFS views never needs its CSR.
        self._adj_indptr = self._adj_indices = self._adj_edges = None

    def __getstate__(self) -> tuple:
        # The CSR cache stays out of pickles; whoever unpickles rebuilds it.
        return None, {s: None if s.startswith("_adj_") else getattr(self, s) for s in self.__slots__}

    def _build_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Build CSR (indptr, neighbor indices, edge indices) from the edges."""
        n, src, dst = self.num_vertices, self.edge_src, self.edge_dst
        eid = np.arange(len(src), dtype=np.int64)
        if not self.directed:
            # Self-loops appear once; other undirected edges in both directions.
            loop = src == dst
            src_all = np.concatenate([src, dst[~loop]])
            dst_all = np.concatenate([dst, src[~loop]])
            eid_all = np.concatenate([eid, eid[~loop]])
        else:
            src_all, dst_all, eid_all = src, dst, eid
        order = np.argsort(src_all, kind="stable")
        src_sorted = src_all[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src_sorted + 1, 1)
        np.cumsum(indptr, out=indptr)
        return indptr, dst_all[order], eid_all[order]

    # -- adjacency -----------------------------------------------------------

    @property
    def adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The raw CSR triple ``(indptr, indices, edge_indices)``."""
        # Tested on the slot assigned last, so a second thread never reads a
        # half-filled triple; two threads building at once build the same.
        if self._adj_edges is None:
            self._adj_indptr, self._adj_indices, self._adj_edges = self._build_csr()
        return self._adj_indptr, self._adj_indices, self._adj_edges

    def out_neighbors(self, v: int) -> np.ndarray:
        """Vertex indices adjacent to ``v`` along outgoing (or undirected) edges."""
        indptr, indices, _edges = self.adjacency
        return indices[indptr[v] : indptr[v + 1]]

    def out_edges(self, v: int) -> np.ndarray:
        """Dense edge indices of ``v``'s outgoing (or undirected) edges."""
        indptr, _indices, edges = self.adjacency
        return edges[indptr[v] : indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Out-degree of ``v`` (total degree for undirected templates)."""
        indptr = self.adjacency[0]
        return int(indptr[v + 1] - indptr[v])

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex as a vector."""
        return np.diff(self.adjacency[0])

    # -- whole-graph helpers -------------------------------------------------

    def undirected_edge_view(self) -> tuple[np.ndarray, np.ndarray]:
        """(src, dst) treating every edge as undirected — used by partitioners."""
        return self.edge_src, self.edge_dst

    def stats(self) -> dict:
        """Structural summary used by the dataset table (Table 1)."""
        deg = self.degrees
        return {
            "name": self.name,
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "directed": self.directed,
            "avg_degree": float(deg.mean()) if self.num_vertices else 0.0,
            "max_degree": int(deg.max()) if self.num_vertices else 0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "directed" if self.directed else "undirected"
        return (
            f"GraphTemplate({self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, {kind})"
        )

    # -- equality (structural; used by serde round-trip tests) ---------------

    def equals(self, other: "GraphTemplate") -> bool:
        """Structural equality of topology, ids and schemas."""
        return (
            self.num_vertices == other.num_vertices
            and self.directed == other.directed
            and np.array_equal(self.edge_src, other.edge_src)
            and np.array_equal(self.edge_dst, other.edge_dst)
            and np.array_equal(self.vertex_ids, other.vertex_ids)
            and np.array_equal(self.edge_ids, other.edge_ids)
            and self.vertex_schema == other.vertex_schema
            and self.edge_schema == other.edge_schema
        )
