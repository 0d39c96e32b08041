"""Meme Tracking — paper Algorithm 1 (sequentially dependent pattern).

Tracks how a meme µ spreads over a social network across time: a temporal
BFS over space and time.  Vertices carrying µ at instance 0 are the seeds
(immediately *colored*); at every later instance, an uncolored vertex joins
the colored set when it carries µ in its tweets *and* is adjacent (through a
chain of currently-meme-carrying vertices) to the colored set.

Within a timestep, MemeBFS traverses each subgraph along contiguous
meme-carrying vertices until it reaches a remote edge or a meme-less vertex;
remote neighbors are notified so their subgraph resumes the traversal in the
next superstep.  The newly colored frontier is emitted per timestep
(``PrintHorizon``) and the accumulated colored set rolls forward to the next
instance.

Deviation from the paper's pseudocode (documented in DESIGN.md): Algorithm 1
ships the colored set ``C*`` via ``SendToNextTimestep``; we keep it in
resident subgraph state and send only a continuation token, as with TDSP.
Remote notifications are deduplicated per (destination subgraph) and batched
as numpy arrays.
"""

from __future__ import annotations

import operator

import numpy as np

from .._value import Value
from ..core.computation import TimeSeriesComputation
from ..core.context import ComputeContext, EndOfTimestepContext
from ..core.patterns import Pattern
from ..kernels import (
    contains,
    expand_to_fixpoint,
    group_unique_pairs,
    index_mask,
    open_boundary,
    sorted_unique,
)

__all__ = ["MemeTrackingComputation", "MemeFrontier", "colored_timesteps_from_result"]


class MemeFrontier(Value):
    """Per-subgraph, per-timestep output: vertices (global indices) colored
    for the first time."""

    __slots__ = ("timestep", "vertices")

    def __init__(self, timestep: int, vertices: np.ndarray) -> None:
        self.timestep, self.vertices = timestep, vertices

    @property
    def count(self) -> int:
        return len(self.vertices)


class MemeTrackingComputation(TimeSeriesComputation):
    """TI-BSP meme tracking for a single meme.

    Parameters
    ----------
    meme:
        The meme to track: an integer hashtag id.
    tweets_attr:
        Ragged vertex attribute holding each vertex's hashtags for the
        instance interval.
    """

    pattern = Pattern.SEQUENTIALLY_DEPENDENT

    def __init__(self, meme, tweets_attr: str = "tweets") -> None:
        self.meme = operator.index(meme)
        self.tweets_attr = tweets_attr

    # -- helpers ----------------------------------------------------------------------

    def _init_state(self, ctx: ComputeContext) -> None:
        sg, st = ctx.subgraph, ctx.state
        st["colored"] = np.zeros(sg.num_vertices, dtype=bool)
        # Colored vertices that may still spread locally (boundary of C*).
        st["local_roots"] = np.empty(0, dtype=np.int64)
        #: Index arrays of the vertices first colored this timestep.
        st["newly"] = []
        st["has_remote"] = index_mask(sg.remote.src_local, sg.num_vertices)

    def _has_meme(self, ctx: ComputeContext) -> np.ndarray:
        """Which local vertices carry the meme in the current instance;
        scanned on first use, so an idle subgraph reads no tweets."""
        st = ctx.state
        if "has_meme" not in st:
            st["has_meme"] = contains(ctx.take_vertices(self.tweets_attr), self.meme)
        return st["has_meme"]

    def _kernel_bfs(self, ctx: ComputeContext, seeds: np.ndarray) -> None:
        """Expand through contiguous carriers; notify all remote neighbors."""
        sg, st = ctx.subgraph, ctx.state
        if "expanded" not in st:
            # Each vertex is expanded at most once per timestep, regardless
            # of how many supersteps touch it.
            st["expanded"] = np.zeros(sg.num_vertices, dtype=bool)
        newly, expanded_now = expand_to_fixpoint(
            sg.indptr,
            sg.indices,
            seeds,
            st["colored"],
            st["expanded"],
            vertex_ok=self._has_meme(ctx),
        )
        st["newly"].append(newly)
        remote = sg.remote
        sources = expanded_now[st["has_remote"][expanded_now]]
        if not sources.size:
            return
        rows = index_mask(sources, sg.num_vertices)[remote.src_local].nonzero()[0]
        for dst_sg, verts in group_unique_pairs(
            remote.dst_subgraph[rows], remote.dst_global[rows]
        ):
            ctx.send_to_subgraph(dst_sg, verts)

    # -- TI-BSP hooks --------------------------------------------------------------------

    def compute(self, ctx: ComputeContext) -> None:
        sg, st = ctx.subgraph, ctx.state
        if "colored" not in st:
            self._init_state(ctx)
        colored = st["colored"]
        if ctx.superstep == 0 and ctx.timestep > 0:
            # Resume from the colored set's active boundary (C*).
            seeds = st["local_roots"]
        else:
            if ctx.superstep == 0:
                # Seeds: all vertices carrying the meme now (Alg 1, line 4).
                seeds = self._has_meme(ctx).nonzero()[0]
            else:
                arrived = [
                    np.atleast_1d(sg.local_of(np.asarray(msg.payload, dtype=np.int64)))
                    for msg in ctx.messages
                ]
                seeds = sorted_unique(*(locs[~colored[locs]] for locs in arrived))
                if seeds.size:
                    seeds = seeds[self._has_meme(ctx)[seeds]]
            colored[seeds] = True
            st["newly"].append(seeds)
        if seeds.size:
            self._kernel_bfs(ctx, seeds)
        ctx.vote_to_halt()

    def end_of_timestep(self, ctx: EndOfTimestepContext) -> None:
        sg, st = ctx.subgraph, ctx.state
        newly = sorted_unique(*st["newly"])
        if newly.size:
            ctx.output(MemeFrontier(ctx.timestep, sg.vertices[newly]))
            # Boundary of the colored set: colored vertices with an uncolored
            # local neighbor or a remote edge — the only useful next-step
            # roots; ``colored`` only grows, so they are among today's roots
            # and the newly colored.
            cand = sorted_unique(st["local_roots"], newly)
            keep = open_boundary(sg.indptr, sg.indices, st["colored"], cand)
            st["local_roots"] = cand[keep | st["has_remote"][cand]]
        st["newly"] = []
        st.pop("expanded", None)
        st.pop("has_meme", None)
        # Meme tracking runs the full time range (spread can resume at any
        # later instance), so no vote_to_halt_timestep; keep the app alive.
        ctx.send_to_next_timestep(int(newly.size))


def colored_timesteps_from_result(result) -> dict[int, int]:
    """Vertex → first-colored timestep, assembled from an :class:`AppResult`."""
    colored: dict[int, int] = {}
    for _t, _sg, rec in result.outputs:
        if isinstance(rec, MemeFrontier):
            for v in rec.vertices:
                colored.setdefault(int(v), rec.timestep)
    return colored
