"""Graph instance: attribute values of the template at one timestamp.

Section II-A: the instance ``g^t = ⟨V^t, E^t, t⟩`` carries a value for every
template attribute on every vertex and edge, with ``|V^t| = |V̂|`` and
``|E^t| = |Ê|``.  Topology is *not* stored here — an instance holds only two
columnar :class:`~repro.graph.attributes.AttributeTable` objects plus its
timestamp, and a reference to the shared template.

A slow-changing topology is modelled with the ``is_exists`` convention: a
boolean vertex/edge attribute that simulates appearance and disappearance of
elements across instances (Section II-A, last paragraph).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .attributes import AttributeTable
from .template import GraphTemplate

__all__ = ["GraphInstance", "IS_EXISTS"]

#: Conventional attribute name for soft topology changes.
IS_EXISTS = "is_exists"


class GraphInstance:
    """Attribute values for one timestamp of a time-series graph.

    Parameters
    ----------
    template:
        The shared :class:`GraphTemplate`.
    timestamp:
        Absolute time of this instance (``t0 + k * delta`` for the k-th).
    vertex_values, edge_values:
        Optional pre-built attribute tables; fresh default-filled tables are
        allocated otherwise.
    """

    __slots__ = ("template", "timestamp", "vertex_values", "edge_values")

    def __init__(
        self,
        template: GraphTemplate,
        timestamp: float,
        vertex_values: AttributeTable | None = None,
        edge_values: AttributeTable | None = None,
    ) -> None:
        self.template = template
        self.timestamp = float(timestamp)
        if vertex_values is None:
            vertex_values = template.vertex_schema.create_table(template.num_vertices)
        if edge_values is None:
            edge_values = template.edge_schema.create_table(template.num_edges)
        self.vertex_values = vertex_values
        self.edge_values = edge_values
        if self.vertex_values.n != template.num_vertices:
            raise ValueError("vertex_values row count must equal template vertex count")
        if self.edge_values.n != template.num_edges:
            raise ValueError("edge_values row count must equal template edge count")

    # -- convenience accessors ------------------------------------------------

    def vertex(self, name: str, v: int) -> Any:
        """Value of vertex attribute ``name`` at vertex index ``v``."""
        return self.vertex_values.get(name, v)

    def vertex_column(self, name: str) -> np.ndarray:
        """Whole vertex attribute column (length ``|V̂|``)."""
        return self.vertex_values.column(name)

    def edge_column(self, name: str) -> np.ndarray:
        """Whole edge attribute column (length ``|Ê|``)."""
        return self.edge_values.column(name)

    def copy(self) -> "GraphInstance":
        """Copy attribute values; the template stays shared."""
        return GraphInstance(
            self.template,
            self.timestamp,
            self.vertex_values.copy(),
            self.edge_values.copy(),
        )

    def equals(self, other: "GraphInstance") -> bool:
        """Value equality (same template object not required, same values)."""
        return (
            self.timestamp == other.timestamp
            and self.vertex_values.equals(other.vertex_values)
            and self.edge_values.equals(other.edge_values)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GraphInstance(t={self.timestamp}, template={self.template.name!r})"
