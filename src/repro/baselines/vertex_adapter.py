"""Vertex-centric programming on the TI-BSP engine (paper Section VI).

    "While we have extended our GoFFish framework to support TI-BSP, these
    abstractions can be extended to other partition- and vertex-centric
    programming frameworks too."

:class:`VertexCentricAdapter` demonstrates that claim constructively: it
wraps any :class:`VertexComputation` — Pregel's ``Vertex.compute``, written
from a single vertex's perspective — into a
:class:`~repro.core.computation.TimeSeriesComputation`, so an unmodified
Pregel-style vertex program runs on the subgraph-centric TI-BSP runtime —
partitioning, GoFS storage, metrics and all.  This is also the Fig 5b
"Giraph" baseline: over ``HashPartitioner()`` placement (Giraph's default,
``v % k``) nearly every subgraph is one vertex, so the run is Pregel — one
superstep per hop, one message per edge relaxation — and only the cost
model's barrier differs (:mod:`repro.baselines.comparison`).

Mapping:

* each TI-BSP superstep executes one *vertex* superstep: the adapter loops
  over the subgraph's local vertices, invoking the vertex ``compute``;
* vertex→vertex messages are routed by the adapter — local destinations are
  buffered in subgraph state, remote ones bundled per destination subgraph
  (so the adapter even gives the vertex program GoFFish's bulk-messaging
  savings for free);
* vertex halt votes aggregate to a subgraph halt vote once every local
  vertex is halted and no local messages are pending.

Fidelity note: semantics match Pregel's — superstep 0 runs every vertex,
a halted vertex wakes on an incoming message.  The adapter operates per
instance (independent pattern); wrap a range to analyze one instance, as
the Fig 5b baselines do.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from ..core.computation import TimeSeriesComputation
from ..core.context import ComputeContext, EndOfTimestepContext
from ..core.patterns import Pattern

__all__ = [
    "VertexComputation",
    "VertexContext",
    "VertexCentricAdapter",
    "vertex_values_from_result",
]


class VertexContext:
    """Per-vertex, per-superstep view handed to :meth:`VertexComputation.compute`.

    Mutable ``value`` is the vertex's persistent state (Pregel's vertex
    value); sends are delivered next superstep.  Backed by the TI-BSP
    subgraph context of the vertex's subgraph.
    """

    __slots__ = ("_adapter", "_ctx", "_local", "vertex", "superstep", "messages", "_halt")

    def __init__(self, adapter, ctx: ComputeContext, local: int, messages) -> None:
        self._adapter = adapter
        self._ctx = ctx
        self._local = local
        self.vertex = int(ctx.subgraph.vertices[local])
        self.superstep = ctx.superstep
        self.messages = messages
        self._halt = False

    @property
    def value(self) -> Any:
        return self._ctx.state["values"][self._local]

    @value.setter
    def value(self, v: Any) -> None:
        self._ctx.state["values"][self._local] = v

    @property
    def num_vertices(self) -> int:
        return self._ctx.instance.template.num_vertices

    def out_neighbors(self) -> np.ndarray:
        """Global indices of this vertex's out-neighbors."""
        return self._ctx.instance.template.out_neighbors(self.vertex)

    def out_edge_weights(self) -> np.ndarray:
        """Weights aligned with :meth:`out_neighbors` (ones when unweighted)."""
        edges = self._ctx.instance.template.out_edges(self.vertex)
        if self._adapter.weight_attr is None:
            return np.ones(len(edges))
        return self._ctx.instance.edge_column(self._adapter.weight_attr)[edges]

    def send(self, vertex: int, payload: Any) -> None:
        """Message another vertex, delivered next superstep."""
        self._adapter._route(self._ctx, int(vertex), payload)

    def vote_to_halt(self) -> None:
        self._halt = True


class VertexComputation(abc.ABC):
    """Base class for vertex programs (Pregel's ``Vertex.compute``)."""

    @abc.abstractmethod
    def compute(self, ctx: VertexContext) -> None: ...

    def initial_value(self, vertex: int) -> Any:
        """Initial vertex value (default ``None``)."""
        return None


class VertexCentricAdapter(TimeSeriesComputation):
    """Run a Pregel-style vertex program on the TI-BSP engine.

    Parameters
    ----------
    vertex_computation:
        The unmodified vertex program.
    vertex_subgraph:
        Global vertex → subgraph id array (``PartitionedGraph.vertex_subgraph``)
        for routing vertex messages.
    weight_attr:
        Optional edge attribute exposed through ``out_edge_weights``.
    """

    pattern = Pattern.INDEPENDENT

    def __init__(
        self,
        vertex_computation: VertexComputation,
        vertex_subgraph: np.ndarray,
        weight_attr: str | None = None,
    ) -> None:
        self.vertex_computation = vertex_computation
        self.vertex_subgraph = np.asarray(vertex_subgraph, dtype=np.int64)
        self.weight_attr = weight_attr

    # -- message routing -------------------------------------------------------------

    def _route(self, ctx: ComputeContext, vertex: int, payload: Any) -> None:
        dst_sg = int(self.vertex_subgraph[vertex])
        if dst_sg == ctx.subgraph.subgraph_id:
            ctx.state["local_inbox"].setdefault(vertex, []).append(payload)
        else:
            ctx.state["remote_outbox"].setdefault(dst_sg, []).append((vertex, payload))

    def _flush_remote(self, ctx: ComputeContext) -> None:
        for dst_sg, bundle in ctx.state["remote_outbox"].items():
            ctx.send_to_subgraph(dst_sg, bundle)
        ctx.state["remote_outbox"] = {}

    # -- TI-BSP hooks ------------------------------------------------------------------

    def compute(self, ctx: ComputeContext) -> None:
        sg, st = ctx.subgraph, ctx.state
        if ctx.superstep == 0:
            st["values"] = [
                self.vertex_computation.initial_value(int(v)) for v in sg.vertices
            ]
            st["halted"] = np.zeros(sg.num_vertices, dtype=bool)
            st["local_inbox"] = {}
            st["remote_outbox"] = {}

        # Gather this vertex superstep's inbox: carried-over local messages
        # plus remote bundles delivered by the TI-BSP layer.
        inbox: dict[int, list] = st["local_inbox"]
        st["local_inbox"] = {}
        for msg in ctx.messages:
            for vertex, payload in msg.payload:
                inbox.setdefault(int(vertex), []).append(payload)

        halted = st["halted"]
        any_active = False
        for local in range(sg.num_vertices):
            gvertex = int(sg.vertices[local])
            msgs = inbox.get(gvertex, ())
            if ctx.superstep > 0 and halted[local] and not msgs:
                continue
            any_active = True
            vctx = VertexContext(self, ctx, local, msgs)
            self.vertex_computation.compute(vctx)
            halted[local] = vctx._halt

        self._flush_remote(ctx)
        # The subgraph halts when all vertices halted and no local messages
        # wait; a locally-pending message forces another superstep.
        if st["local_inbox"]:
            return  # stay active: self-deliver next superstep
        if not any_active or halted.all():
            ctx.vote_to_halt()

    def end_of_timestep(self, ctx: EndOfTimestepContext) -> None:
        st = ctx.state
        if "values" in st:
            ctx.output(
                (ctx.timestep, ctx.subgraph.vertices.copy(), list(st["values"]))
            )


def vertex_values_from_result(result, num_vertices: int, timestep: int = 0) -> list:
    """Assemble the global vertex-value list for one timestep."""
    values: list = [None] * num_vertices
    for _t, _sg, (t, vertices, chunk) in result.outputs:
        if t == timestep:
            for v, value in zip(vertices, chunk):
                values[int(v)] = value
    return values
