"""Time-Dependent Shortest Path (TDSP) — paper Algorithm 2.

Sequentially dependent pattern.  Finds, for every vertex, the earliest time
one can reach it from a source vertex ``s`` departing at ``t0``, when edge
latencies change every ``δ`` (discrete-time TDSP with waiting allowed).

Per timestep ``t`` the algorithm runs a *modified SSSP* (Dijkstra bounded by
the window end ``(t+1)·δ``) inside each subgraph:

* roots at ``t = 0`` are the source (label 0);
* roots at ``t > 0`` are previously-finalized vertices, re-labelled ``t·δ``
  (the idling-edge value — they waited at the vertex until the window
  opened);
* vertices whose label lands within the window are *finalized*: their label
  is the true TDSP value and can never improve (any later path arrives
  ≥ the next window start);
* relaxations along remote edges are batched per destination subgraph and
  sent as numpy arrays (bulk messaging).

Deviation from the paper's pseudocode, documented in DESIGN.md: Algorithm 2
ships the frontier set ``F`` through ``SendToNextTimestep``; we keep ``F`` in
resident subgraph state (hosts are memory-resident in GoFFish too) and send
only a small continuation token while the subgraph is unfinished.  This
preserves semantics and enables the While-loop early termination the paper
reports (TDSP on WIKI finishing in 4 of 50 timesteps).  As an optimization,
only *boundary* finalized vertices (with an unfinalized local neighbor or an
open cut row) are re-rooted each timestep.  A cut row closes once it has
shipped a candidate inside a window: its head is final from that timestep
on, so a timestep the wave has left behind sends nothing across the cut.
"""

from __future__ import annotations

import numpy as np

from .._value import Value
from ..core.computation import TimeSeriesComputation
from ..core.context import ComputeContext, EndOfTimestepContext
from ..core.patterns import Pattern
from ..kernels import (
    combine_min_labels,
    group_min_pairs,
    index_mask,
    open_boundary,
    relax_to_fixpoint,
    sorted_unique,
)

__all__ = ["TDSPComputation", "TDSPFrontier", "tdsp_labels_from_result"]

_INF = np.inf


class TDSPFrontier(Value):
    """Per-subgraph, per-timestep output record: newly finalized vertices
    (global indices) and their TDSP values (relative to t0)."""

    __slots__ = ("timestep", "vertices", "labels")

    def __init__(self, timestep: int, vertices: np.ndarray, labels: np.ndarray) -> None:
        self.timestep, self.vertices, self.labels = timestep, vertices, labels

    @property
    def count(self) -> int:
        return len(self.vertices)


class TDSPComputation(TimeSeriesComputation):
    """TI-BSP TDSP from a source vertex.

    Parameters
    ----------
    source:
        Global (template) index of the source vertex.
    latency_attr:
        Edge attribute holding per-instance travel times (must be positive).
    halt_when_stalled:
        Also vote to end the run in any timestep where the subgraph
        finalized no new vertex.  This is an *exact* convergence test when
        every latency is ≤ δ (any unfinalized neighbor of the frontier is
        then always finalized within one window, so a globally stalled
        frontier is complete) — and it is what lets TDSP terminate after a
        few timesteps on graphs where the source cannot reach everything
        (e.g. directed WIKI), matching the paper's "4 timesteps on WIKI".
        Leave off when latencies can exceed δ: a blocked edge might become
        traversable in a later instance.
    root_pruning:
        When True (default), only *boundary* finalized vertices (those with
        an unfinalized local neighbor or an open cut row) are re-rooted each
        timestep — an optimization over the paper's Algorithm 2, which
        re-roots from the entire finalized set ``F``.  A cut row closes at
        the end of the timestep in which it shipped a candidate ≤ the window
        end (that left its head finalized), and is never relaxed again.
        Results are identical either way; pass False for paper-faithful
        execution, whose per-partition work profile reproduces Fig 5a's
        strong scaling and Fig 6a's gently growing per-timestep cost
        (work ∝ |F|), and which re-sends over every cut edge each timestep.
    """

    pattern = Pattern.SEQUENTIALLY_DEPENDENT

    def __init__(
        self,
        source: int,
        latency_attr: str = "latency",
        *,
        halt_when_stalled: bool = False,
        root_pruning: bool = True,
    ) -> None:
        self.source = int(source)
        self.latency_attr = latency_attr
        self.halt_when_stalled = bool(halt_when_stalled)
        self.root_pruning = bool(root_pruning)

    def combine(self, dst: int, payloads: list):
        """Min-distance combiner: keep the best relaxation per vertex."""
        return combine_min_labels(payloads)

    # -- state management ----------------------------------------------------------

    def _init_state(self, ctx: ComputeContext) -> None:
        sg, st = ctx.subgraph, ctx.state
        n = sg.num_vertices
        # All-inf between timesteps: only this timestep's roots and improved
        # vertices are ever finite, and ``end_of_timestep`` resets those.
        st["label"] = np.full(n, _INF)
        st["finalized"] = np.zeros(n, dtype=bool)
        st["unfinalized"] = n
        st["roots"] = np.empty(0, dtype=np.int64)
        #: Index arrays of the unfinalized vertices labelled this timestep.
        st["touched"] = []
        #: Cut rows (``sg.remote``) still to deliver, the vertices with one,
        #: and the rows that shipped a candidate inside this timestep's window.
        st["open"] = np.ones(len(sg.remote.src_local), dtype=bool)
        st["has_open"] = index_mask(sg.remote.src_local, n)
        st["shipped"] = []

    def _weights(self, ctx: ComputeContext, key: str, rows: np.ndarray) -> tuple:
        """This instance's latencies at ``rows`` as ``ctx.locate_edges``'s
        ``(values, index)``, on first use: a subgraph the wave is not in this
        timestep reads nothing, one it is in only the slots it relaxes."""
        st = ctx.state
        if key not in st:
            st[key] = ctx.locate_edges(self.latency_attr, rows)
        return st[key]

    def _kernel_relax(self, ctx: ComputeContext, seeds: np.ndarray) -> None:
        """Window-bounded batched relaxation; ships remote relaxations."""
        sg, st = ctx.subgraph, ctx.state
        bound = (ctx.timestep + 1) * ctx.delta
        label = st["label"]
        changed = seeds
        if st["unfinalized"]:  # else only the cut edges are left to relax
            values, index = self._weights(ctx, "w_local", sg.edge_index)
            improved = relax_to_fixpoint(
                sg.indptr,
                sg.indices,
                values,
                label,
                seeds,
                bound=bound,
                blocked=st["finalized"],
                slot_src=sg.slot_src,
                weight_index=index,
            )
            st["touched"].append(improved)
            changed = np.concatenate((seeds, improved))
        remote = sg.remote
        sources = changed[st["has_open"][changed]]
        if not sources.size:
            return
        rows = (index_mask(sources, sg.num_vertices)[remote.src_local] & st["open"]).nonzero()[0]
        cand = label[remote.src_local[rows]]
        values, index = self._weights(ctx, "w_remote", remote.edge_index)
        cand += values[rows if index is None else index[rows]]
        keep = (cand <= bound).nonzero()[0]
        if not keep.size:
            return
        rows, cand = rows[keep], cand[keep]
        st["shipped"].append(rows)
        for dst_sg, verts, vals in group_min_pairs(
            remote.dst_subgraph[rows], remote.dst_global[rows], cand
        ):
            ctx.send_to_subgraph(dst_sg, (verts, vals))

    # -- TI-BSP hooks ------------------------------------------------------------------

    def compute(self, ctx: ComputeContext) -> None:
        sg, st = ctx.subgraph, ctx.state
        if "label" not in st:
            self._init_state(ctx)
        label = st["label"]
        if ctx.superstep == 0 and ctx.timestep > 0:
            # Idling-edge re-rooting: finalized boundary vertices resume
            # at the window start t·δ.
            seeds = st["roots"]
            label[seeds] = ctx.timestep * ctx.delta
        else:
            fresh: list[np.ndarray] = []
            if ctx.superstep > 0:
                finalized = st["finalized"]
                for msg in ctx.messages:
                    verts, labels = msg.payload
                    locs = np.atleast_1d(sg.local_of(np.asarray(verts, dtype=np.int64)))
                    nd = np.atleast_1d(np.asarray(labels, dtype=np.float64))
                    upd = ((~finalized[locs]) & (nd < label[locs])).nonzero()[0]
                    better = locs[upd]
                    label[better] = nd[upd]
                    fresh.append(better)
            elif sg.contains(self.source):
                fresh.append(np.asarray([sg.local_of(self.source)], dtype=np.int64))
                label[fresh[0]] = 0.0
            seeds = sorted_unique(*fresh)
            st["touched"].append(seeds)
        if seeds.size:
            self._kernel_relax(ctx, seeds)
        ctx.vote_to_halt()

    def end_of_timestep(self, ctx: EndOfTimestepContext) -> None:
        """Finalize what this timestep labelled and pick the next roots, at
        the cost of those vertices.  Every finite label on an unfinalized
        vertex is ≤ the window end (relaxation discards above it, senders
        filter ``cand <= bound``): the touched set *is* the newly finalized."""
        sg, st = ctx.subgraph, ctx.state
        label, finalized, roots = st["label"], st["finalized"], st["roots"]
        newly = sorted_unique(*st["touched"])
        if newly.size:
            values = label[newly]
            finalized[newly] = True
            st["unfinalized"] -= newly.size
            ctx.output(TDSPFrontier(ctx.timestep, sg.vertices[newly], values))
        # A cut row that shipped a candidate ≤ the window end left its head
        # touched, so finalized now: every later candidate is ≥ the next
        # window start, above that label.  Closed at the end of the timestep,
        # not at send time — a later superstep may improve the tail.
        closed = self.root_pruning and bool(st["shipped"])
        if closed:
            st["open"][np.concatenate(st["shipped"])] = False
            st["has_open"] = index_mask(sg.remote.src_local[st["open"]], sg.num_vertices)
        # Next roots: Algorithm 2 re-roots from the whole finalized set F;
        # with root_pruning only finalized vertices that can still relax
        # someone (an unfinalized local neighbor, or an open cut row) —
        # among this timestep's roots and newly finalized, as F only grows.
        if self.root_pruning and (newly.size or closed):
            cand = sorted_unique(roots, newly)
            keep = open_boundary(sg.indptr, sg.indices, finalized, cand)
            st["roots"] = cand[keep | st["has_open"][cand]]
        elif newly.size:
            st["roots"] = finalized.nonzero()[0]
        # Back to all-inf: a wide relaxation round reads every slot's source
        # label, and the only labels it may find are its own timestep's.
        label[roots] = _INF
        label[newly] = _INF
        st["touched"], st["shipped"] = [], []
        st.pop("w_local", None)
        st.pop("w_remote", None)
        if not st["unfinalized"] or (self.halt_when_stalled and not newly.size):
            ctx.vote_to_halt_timestep()
        else:
            ctx.send_to_next_timestep(int(newly.size))


def tdsp_labels_from_result(result, num_vertices: int) -> np.ndarray:
    """Assemble the global TDSP label vector from an :class:`AppResult`.

    Unreached vertices get ``inf``.
    """
    labels = np.full(num_vertices, _INF)
    for _t, _sg, rec in result.outputs:
        if isinstance(rec, TDSPFrontier):
            labels[rec.vertices] = rec.labels
    return labels
