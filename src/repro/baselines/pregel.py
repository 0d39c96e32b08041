"""Vertex-centric BSP engine — the Apache Giraph / Pregel baseline.

Fig 5b compares GoFFish against Giraph v1.1.  No Giraph exists offline, so
we implement the Pregel model from scratch: users write ``compute`` from a
*single vertex's* perspective; vertices exchange messages in barriered
supersteps; halted vertices wake on incoming messages; the run ends when all
vertices are halted and no messages are in flight.

Workers (= the paper's Giraph workers, one per core/VM) hold hash-partitioned
vertices — Giraph's default partitioning — and the engine records the same
per-worker compute/send metrics as the TI-BSP runtime, with the same
:class:`~repro.runtime.cost.CostModel`, so simulated wall-clocks are directly
comparable.  The structural disadvantages the paper exploits emerge
naturally: one superstep per *hop* (vs per subgraph-frontier) and one
message per *edge relaxation* (vs bulk arrays per subgraph pair).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..graph.instance import GraphInstance
from ..graph.template import GraphTemplate
from ..runtime.cost import CostModel
from ..runtime.metrics import PHASE_COMPUTE, MetricsCollector, StepRecord

__all__ = ["VertexContext", "VertexComputation", "PregelEngine", "PregelResult"]


class VertexContext:
    """Per-vertex, per-superstep view handed to ``compute``.

    Mutable ``value`` is the vertex's persistent state (Pregel's vertex
    value).  Sends are buffered by the engine and delivered next superstep.
    """

    __slots__ = ("vertex", "superstep", "messages", "engine", "_halt")

    def __init__(self, vertex: int, superstep: int, messages: Sequence[Any], engine: "PregelEngine") -> None:
        self.vertex = vertex
        self.superstep = superstep
        self.messages = messages
        self.engine = engine
        self._halt = False

    @property
    def value(self) -> Any:
        return self.engine.values[self.vertex]

    @value.setter
    def value(self, v: Any) -> None:
        self.engine.values[self.vertex] = v

    @property
    def num_vertices(self) -> int:
        return self.engine.template.num_vertices

    def out_neighbors(self) -> np.ndarray:
        """Global indices of this vertex's out-neighbors."""
        return self.engine.template.out_neighbors(self.vertex)

    def out_edge_weights(self) -> np.ndarray:
        """Weights aligned with :meth:`out_neighbors` (ones when unweighted)."""
        return self.engine.edge_weights_of(self.vertex)

    def send(self, vertex: int, payload: Any) -> None:
        """Message another vertex, delivered next superstep."""
        self.engine._outbox.append((int(vertex), payload))

    def vote_to_halt(self) -> None:
        self._halt = True


class VertexComputation(abc.ABC):
    """Base class for vertex programs (Pregel's ``Vertex.compute``)."""

    @abc.abstractmethod
    def compute(self, ctx: VertexContext) -> None: ...

    def initial_value(self, vertex: int) -> Any:
        """Initial vertex value (default ``None``)."""
        return None


@dataclass
class PregelResult:
    """Final vertex values plus run metrics."""

    values: list
    metrics: MetricsCollector
    supersteps: int = 0

    @property
    def total_wall_s(self) -> float:
        return self.metrics.total_wall()


class PregelEngine:
    """Synchronous vertex-centric BSP over a single graph (instance).

    Parameters
    ----------
    template:
        Graph topology.
    num_workers:
        Hash-partitioned worker count (the paper sets workers = cores).
    instance / weight_attr:
        Optional edge weights read from a graph instance.
    cost_model:
        Shared communication cost model (same as the TI-BSP runtime).
    """

    def __init__(
        self,
        template: GraphTemplate,
        num_workers: int,
        *,
        instance: GraphInstance | None = None,
        weight_attr: str | None = None,
        cost_model: CostModel | None = None,
        max_supersteps: int = 1_000_000,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.template = template
        self.num_workers = int(num_workers)
        self.cost_model = cost_model or CostModel()
        self.max_supersteps = int(max_supersteps)
        self.values: list = []
        self._outbox: list[tuple[int, Any]] = []
        n = template.num_vertices
        self.worker_of = np.arange(n, dtype=np.int64) % self.num_workers
        if weight_attr is not None:
            if instance is None:
                raise ValueError("weight_attr requires an instance")
            self._weights = instance.edge_column(weight_attr)
        else:
            self._weights = None

    def edge_weights_of(self, vertex: int) -> np.ndarray:
        edges = self.template.out_edges(vertex)
        if self._weights is None:
            return np.ones(len(edges))
        return self._weights[edges]

    def run(
        self,
        computation: VertexComputation,
        initial_active: Sequence[int] | None = None,
    ) -> PregelResult:
        """Execute until global quiescence (all halted, no messages).

        ``initial_active``: vertices active at superstep 0 (default: all —
        Pregel's convention).
        """
        template = self.template
        n = template.num_vertices
        self.values = [computation.initial_value(v) for v in range(n)]
        halted = np.zeros(n, dtype=bool)
        inbox: dict[int, list[Any]] = {}
        if initial_active is not None:
            halted[:] = True
            halted[np.asarray(list(initial_active), dtype=np.int64)] = False

        metrics = MetricsCollector(
            self.num_workers, barrier_s=self.cost_model.barrier_cost(self.num_workers)
        )
        superstep = 0
        while True:
            if superstep >= self.max_supersteps:
                raise RuntimeError("Pregel run exceeded max_supersteps")
            # Per-worker accounting for this superstep.
            compute_s = np.zeros(self.num_workers)
            local_msgs = np.zeros(self.num_workers, dtype=np.int64)
            remote_msgs = np.zeros(self.num_workers, dtype=np.int64)
            remote_bytes = np.zeros(self.num_workers, dtype=np.int64)
            computed = np.zeros(self.num_workers, dtype=np.int64)

            active = [v for v in range(n) if (not halted[v]) or v in inbox]
            outbox_by_worker: list[list[tuple[int, Any]]] = [[] for _ in range(self.num_workers)]
            for v in active:
                worker = int(self.worker_of[v])
                msgs = inbox.get(v, ())
                ctx = VertexContext(v, superstep, msgs, self)
                self._outbox = []
                start = time.perf_counter()
                computation.compute(ctx)
                compute_s[worker] += time.perf_counter() - start
                computed[worker] += 1
                halted[v] = ctx._halt
                for dst, payload in self._outbox:
                    outbox_by_worker[worker].append((dst, payload))
                    if self.worker_of[dst] == worker:
                        local_msgs[worker] += 1
                    else:
                        remote_msgs[worker] += 1
                        remote_bytes[worker] += _payload_size(payload)

            for w in range(self.num_workers):
                send_s = self.cost_model.local_send_cost(int(local_msgs[w]))
                send_s += self.cost_model.remote_send_cost(
                    int(remote_msgs[w]), int(remote_bytes[w])
                )
                metrics.fold(
                    StepRecord(
                        phase=PHASE_COMPUTE,
                        timestep=0,
                        superstep=superstep,
                        partition=w,
                        compute_s=float(compute_s[w]),
                        send_s=send_s,
                        subgraphs_computed=int(computed[w]),
                        messages_sent=int(local_msgs[w] + remote_msgs[w]),
                        bytes_sent=int(remote_bytes[w]),
                    )
                )

            inbox = {}
            for per_worker in outbox_by_worker:
                for dst, payload in per_worker:
                    inbox.setdefault(dst, []).append(payload)
            superstep += 1
            if not inbox and halted.all():
                break

        return PregelResult(values=self.values, metrics=metrics, supersteps=superstep)


def _payload_size(payload: Any) -> int:
    if hasattr(payload, "nbytes"):
        return int(payload.nbytes)
    return 16
