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
from ..kernels import any_neighbor, expand_to_fixpoint, group_unique_pairs

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
        st["reached_at"] = np.full(n, -1, dtype=np.int64)
        st["roots"] = np.empty(0, dtype=np.int64)
        st["slot_src"] = np.repeat(np.arange(n, dtype=np.int64), np.diff(sg.indptr))
        has_remote = np.zeros(n, dtype=bool)
        has_remote[sg.remote.src_local] = True
        st["has_remote"] = has_remote

    def _existence(self, ctx: ComputeContext) -> tuple[np.ndarray, np.ndarray]:
        sg = ctx.subgraph
        if self.exists_attr in ctx.instance.template.edge_schema:
            return (
                ctx.take_edges(self.exists_attr, sg.edge_index).astype(bool),
                ctx.take_edges(self.exists_attr, sg.remote.edge_index).astype(bool),
            )
        return (
            np.ones(len(sg.edge_index), dtype=bool),
            np.ones(len(sg.remote.edge_index), dtype=bool),
        )

    def _kernel_expand(self, ctx: ComputeContext, seeds: np.ndarray) -> None:
        """Settle the reachable set along existing edges; notify remotes."""
        sg, st = ctx.subgraph, ctx.state
        newly, expanded_now = expand_to_fixpoint(
            sg.indptr,
            sg.indices,
            seeds,
            st["reached"],
            st["expanded"],
            edge_ok=st["exists_local"],
        )
        st["reached_at"][newly] = ctx.timestep
        remote = sg.remote
        if not len(remote) or not expanded_now.size:
            return
        mask = np.zeros(sg.num_vertices, dtype=bool)
        mask[expanded_now] = True
        rows = np.nonzero(mask[remote.src_local] & st["exists_remote"])[0]
        for dst_sg, verts in group_unique_pairs(
            remote.dst_subgraph[rows], remote.dst_global[rows]
        ):
            ctx.send_to_subgraph(dst_sg, verts)

    # -- TI-BSP hooks ----------------------------------------------------------------------

    def compute(self, ctx: ComputeContext) -> None:
        sg, st = ctx.subgraph, ctx.state
        seeds: list[np.ndarray] = []
        if ctx.superstep == 0:
            if "reached" not in st:
                self._init_state(ctx)
            st["exists_local"], st["exists_remote"] = self._existence(ctx)
            st["expanded"] = np.zeros(sg.num_vertices, dtype=bool)
            if ctx.timestep == 0 and sg.contains(self.source):
                lv = sg.local_of(self.source)
                if not st["reached"][lv]:
                    st["reached"][lv] = True
                    st["reached_at"][lv] = 0
                seeds.append(np.asarray([lv], dtype=np.int64))
            seeds.append(st["roots"])
        else:
            reached, reached_at = st["reached"], st["reached_at"]
            for msg in ctx.messages:
                locs = np.atleast_1d(
                    sg.local_of(np.asarray(msg.payload, dtype=np.int64))
                )
                new = ~reached[locs]
                if new.any():
                    fresh = locs[new]
                    reached[fresh] = True
                    reached_at[fresh] = ctx.timestep
                    seeds.append(fresh)
        frontier = (
            np.unique(np.concatenate(seeds)) if seeds else np.empty(0, dtype=np.int64)
        )
        if frontier.size:
            self._kernel_expand(ctx, frontier)
        ctx.vote_to_halt()

    def end_of_timestep(self, ctx: EndOfTimestepContext) -> None:
        sg, st = ctx.subgraph, ctx.state
        reached, reached_at = st["reached"], st["reached_at"]
        newly = reached_at == ctx.timestep
        if newly.any():
            ctx.output(ReachedFrontier(ctx.timestep, sg.vertices[newly].copy()))
        # Next roots: reached vertices that could still reach someone — a
        # template neighbor that is unreached (whatever today's existence
        # says, it may exist tomorrow) or any remote edge.
        border = any_neighbor(st["slot_src"], sg.indices, ~reached)
        st["roots"] = np.nonzero(reached & (border | st["has_remote"]))[0]
        if bool(reached.all()):
            ctx.vote_to_halt_timestep()
        else:
            ctx.send_to_next_timestep(int(newly.sum()))


def reached_timesteps_from_result(result) -> dict[int, int]:
    """Vertex → earliest-reached timestep, assembled from an AppResult."""
    reached: dict[int, int] = {}
    for _t, _sg, rec in result.outputs:
        if isinstance(rec, ReachedFrontier):
            for v in rec.vertices:
                reached.setdefault(int(v), rec.timestep)
    return reached
