"""Temporal reachability over an evolving (``is_exists``) topology.

The paper's Section II-B traversal discussion: on time-series graphs one can
traverse along spatial edges *and* along the virtual temporal edge to the
next instance; combined with the ``is_exists`` convention of Section II-A,
this yields the classic temporal-reachability question — *from a source at
t0, which vertices can be reached by which timestep, when edges appear and
disappear over time?*  (Think road closures, or intermittent communication
links.)

Semantics: within instance ``t`` any number of spatial hops may be taken
along edges that exist at ``t``; the reached set then carries over the
temporal edge to instance ``t+1``.  A sequentially dependent TI-BSP
algorithm, structurally a cousin of Meme Tracking with edge- instead of
vertex-gating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.computation import TimeSeriesComputation
from ..core.context import ComputeContext, EndOfTimestepContext
from ..core.patterns import Pattern
from ..graph.instance import IS_EXISTS
from ..kernels import (
    expand_to_fixpoint,
    group_unique_pairs,
    index_mask,
    open_boundary,
    sorted_unique,
)

__all__ = [
    "TemporalReachabilityComputation",
    "ReachedFrontier",
    "reached_timesteps_from_result",
]


@dataclass(frozen=True)
class ReachedFrontier:
    """Per-subgraph, per-timestep output: vertices reached for the first time."""

    timestep: int
    vertices: np.ndarray

    @property
    def count(self) -> int:
        return len(self.vertices)


class TemporalReachabilityComputation(TimeSeriesComputation):
    """Earliest-reach timestep for every vertex from a source.

    Parameters
    ----------
    source:
        Global index of the source vertex (reached at timestep 0).
    exists_attr:
        Boolean edge attribute gating traversal per instance (defaults to
        the paper's ``is_exists`` convention; a missing column means the
        edge always exists).
    """

    pattern = Pattern.SEQUENTIALLY_DEPENDENT

    def __init__(self, source: int, exists_attr: str = IS_EXISTS) -> None:
        self.source = int(source)
        self.exists_attr = exists_attr

    # -- helpers ------------------------------------------------------------------------

    def _init_state(self, ctx: ComputeContext) -> None:
        sg, st = ctx.subgraph, ctx.state
        n = sg.num_vertices
        st["reached"] = np.zeros(n, dtype=bool)
        st["unreached"] = n
        st["roots"] = np.empty(0, dtype=np.int64)
        #: Index arrays of the vertices first reached this timestep.
        st["newly"] = []
        #: Cut rows (``sg.remote``) still to carry the frontier, the vertices
        #: with one, and the rows that carried it this timestep.
        st["open"] = np.ones(len(sg.remote.src_local), dtype=bool)
        st["has_open"] = index_mask(sg.remote.src_local, n)
        st["shipped"] = []

    def _exists(self, ctx: ComputeContext, key: str, rows: np.ndarray) -> np.ndarray | None:
        """This instance's existence flags at ``rows``, gathered on first
        use — a subgraph nothing reaches this timestep takes nothing.
        ``None`` when the template has no such column: every edge exists."""
        if self.exists_attr not in ctx.instance.template.edge_schema:
            return None
        st = ctx.state
        if key not in st:
            st[key] = ctx.take_edges(self.exists_attr, rows).astype(bool)
        return st[key]

    def _kernel_expand(self, ctx: ComputeContext, seeds: np.ndarray) -> None:
        """Settle the reachable set along existing edges; notify remotes."""
        sg, st = ctx.subgraph, ctx.state
        if "expanded" not in st:  # per timestep, like the existence flags
            st["expanded"] = np.zeros(sg.num_vertices, dtype=bool)
        newly, expanded_now = expand_to_fixpoint(
            sg.indptr,
            sg.indices,
            seeds,
            st["reached"],
            st["expanded"],
            edge_ok=self._exists(ctx, "exists_local", sg.edge_index),
        )
        st["newly"].append(newly)
        remote = sg.remote
        sources = expanded_now[st["has_open"][expanded_now]]
        if not sources.size:
            return
        rows = (index_mask(sources, sg.num_vertices)[remote.src_local] & st["open"]).nonzero()[0]
        exists = self._exists(ctx, "exists_remote", remote.edge_index)
        if exists is not None:
            rows = rows[exists[rows]]
            if not rows.size:
                return
        st["shipped"].append(rows)
        for dst_sg, verts in group_unique_pairs(
            remote.dst_subgraph[rows], remote.dst_global[rows]
        ):
            ctx.send_to_subgraph(dst_sg, verts)

    # -- TI-BSP hooks ----------------------------------------------------------------------

    def compute(self, ctx: ComputeContext) -> None:
        sg, st = ctx.subgraph, ctx.state
        if "reached" not in st:
            self._init_state(ctx)
        reached = st["reached"]
        seeds: list[np.ndarray] = []
        if ctx.superstep > 0:
            for msg in ctx.messages:
                locs = np.atleast_1d(
                    sg.local_of(np.asarray(msg.payload, dtype=np.int64))
                )
                seeds.append(locs[~reached[locs]])
        elif ctx.timestep == 0 and sg.contains(self.source):
            seeds.append(np.asarray([sg.local_of(self.source)], dtype=np.int64))
        # Source and message-fresh vertices are reached now; roots were already.
        fresh = sorted_unique(*seeds)
        if fresh.size:
            reached[fresh] = True
            st["newly"].append(fresh)
        frontier = fresh if ctx.superstep else np.concatenate((st["roots"], fresh))
        if frontier.size:
            self._kernel_expand(ctx, frontier)
        ctx.vote_to_halt()

    def end_of_timestep(self, ctx: EndOfTimestepContext) -> None:
        sg, st = ctx.subgraph, ctx.state
        newly = sorted_unique(*st["newly"])
        if newly.size:
            st["unreached"] -= newly.size
            ctx.output(ReachedFrontier(ctx.timestep, sg.vertices[newly]))
        # A cut row that carried the frontier has reached its head for good
        # (heads are marked reached on receipt): close it.
        if st["shipped"]:
            st["open"][np.concatenate(st["shipped"])] = False
            st["has_open"] = index_mask(sg.remote.src_local[st["open"]], sg.num_vertices)
        if newly.size or st["shipped"]:
            # Next roots: reached vertices that could still reach someone — a
            # template neighbor that is unreached (whatever today's existence
            # says, it may exist tomorrow) or an open cut row.  ``reached``
            # only grows, so they are among today's roots and the newly reached.
            cand = sorted_unique(st["roots"], newly)
            keep = open_boundary(sg.indptr, sg.indices, st["reached"], cand)
            st["roots"] = cand[keep | st["has_open"][cand]]
        st["newly"], st["shipped"] = [], []
        for key in ("expanded", "exists_local", "exists_remote"):
            st.pop(key, None)
        if not st["unreached"]:
            ctx.vote_to_halt_timestep()
        else:
            ctx.send_to_next_timestep(int(newly.size))


def reached_timesteps_from_result(result) -> dict[int, int]:
    """Vertex → earliest-reached timestep, assembled from an AppResult."""
    reached: dict[int, int] = {}
    for _t, _sg, rec in result.outputs:
        if isinstance(rec, ReachedFrontier):
            for v in rec.vertices:
                reached.setdefault(int(v), rec.timestep)
    return reached
