"""Builder for graph templates.

Provide incremental construction (add vertices/edges one at a time, useful in
tests and examples) and bulk construction from edge arrays (used by the
generators).  The builder validates as it goes so that a malformed dataset
fails at build time rather than mid-algorithm.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from .attributes import AttributeSchema, AttributeSpec
from .template import GraphTemplate

__all__ = ["GraphTemplateBuilder"]


class GraphTemplateBuilder:
    """Incrementally assemble a :class:`GraphTemplate`.

    Vertices may be added with arbitrary hashable external keys (e.g. string
    names); they are mapped to dense indices in insertion order.  Edges refer
    to vertices by key.

    Example
    -------
    >>> b = GraphTemplateBuilder(name="toy")
    >>> b.add_vertex("a"); b.add_vertex("b")
    0
    1
    >>> _ = b.add_edge("a", "b")
    >>> tpl = b.build()
    >>> tpl.num_vertices, tpl.num_edges
    (2, 1)
    """

    def __init__(self, *, directed: bool = False, name: str = "graph") -> None:
        self.directed = directed
        self.name = name
        self._keys: dict[Hashable, int] = {}
        self._vertex_ids: list[int] = []
        self._src: list[int] = []
        self._dst: list[int] = []
        self._edge_ids: list[int] = []
        self._seen_edges: set[tuple[int, int]] = set()
        self.vertex_schema = AttributeSchema()
        self.edge_schema = AttributeSchema()

    # -- schema -----------------------------------------------------------------

    def edge_attribute(self, name: str, dtype="float", default=None) -> "GraphTemplateBuilder":
        """Declare an edge attribute; returns self for chaining."""
        self.edge_schema.add(AttributeSpec(name, dtype, default))
        return self

    # -- topology ----------------------------------------------------------------

    def add_vertex(self, key: Hashable | None = None, *, external_id: int | None = None) -> int:
        """Add a vertex; returns its dense index.  Duplicate keys error."""
        if key is None:
            key = len(self._keys)
        if key in self._keys:
            raise ValueError(f"duplicate vertex key {key!r}")
        idx = len(self._keys)
        self._keys[key] = idx
        self._vertex_ids.append(external_id if external_id is not None else idx)
        return idx

    def vertex_index(self, key: Hashable) -> int:
        """Dense index of a previously added vertex."""
        return self._keys[key]

    def add_edge(
        self,
        src: Hashable,
        dst: Hashable,
        *,
        external_id: int | None = None,
        allow_duplicate: bool = False,
    ) -> int:
        """Add an edge between existing vertices; returns its dense index."""
        try:
            s, d = self._keys[src], self._keys[dst]
        except KeyError as exc:
            raise KeyError(f"unknown vertex key {exc.args[0]!r}") from None
        pair = (s, d) if self.directed else (min(s, d), max(s, d))
        if not allow_duplicate and pair in self._seen_edges:
            raise ValueError(f"duplicate edge {src!r} -> {dst!r}")
        self._seen_edges.add(pair)
        idx = len(self._src)
        self._src.append(s)
        self._dst.append(d)
        self._edge_ids.append(external_id if external_id is not None else idx)
        return idx

    def build(self) -> GraphTemplate:
        """Produce the immutable template."""
        return GraphTemplate(
            len(self._keys),
            np.asarray(self._src, dtype=np.int64),
            np.asarray(self._dst, dtype=np.int64),
            directed=self.directed,
            vertex_ids=np.asarray(self._vertex_ids, dtype=np.int64),
            edge_ids=np.asarray(self._edge_ids, dtype=np.int64),
            vertex_schema=self.vertex_schema,
            edge_schema=self.edge_schema,
            name=self.name,
        )

