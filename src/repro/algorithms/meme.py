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

from dataclasses import dataclass

import numpy as np

from ..core.computation import TimeSeriesComputation
from ..core.context import ComputeContext, EndOfTimestepContext
from ..core.patterns import Pattern
from ..kernels import any_neighbor, contains_in_cells, expand_to_fixpoint, group_unique_pairs

__all__ = ["MemeTrackingComputation", "MemeFrontier", "colored_timesteps_from_result"]


@dataclass(frozen=True)
class MemeFrontier:
    """Per-subgraph, per-timestep output: vertices colored for the first time."""

    timestep: int
    vertices: np.ndarray  #: global vertex indices newly colored this timestep

    @property
    def count(self) -> int:
        return len(self.vertices)


class MemeTrackingComputation(TimeSeriesComputation):
    """TI-BSP meme tracking for a single meme.

    Parameters
    ----------
    meme:
        The meme value to track (hashtag id / string).
    tweets_attr:
        Vertex attribute holding each vertex's tweets for the instance
        interval (any container supporting ``in``; ``None`` = no tweets).
    """

    pattern = Pattern.SEQUENTIALLY_DEPENDENT

    def __init__(self, meme, tweets_attr: str = "tweets") -> None:
        self.meme = meme
        self.tweets_attr = tweets_attr

    # -- helpers ----------------------------------------------------------------------

    def _init_state(self, ctx: ComputeContext) -> None:
        sg, st = ctx.subgraph, ctx.state
        st["colored"] = np.zeros(sg.num_vertices, dtype=bool)
        st["colored_at"] = np.full(sg.num_vertices, -1, dtype=np.int64)
        # Colored vertices that may still spread locally (boundary of C*).
        st["local_roots"] = np.empty(0, dtype=np.int64)

    def _has_meme_mask(self, ctx: ComputeContext) -> np.ndarray:
        """Which local vertices carry the meme in the current instance."""
        return contains_in_cells(ctx.take_vertices(self.tweets_attr), self.meme)

    def _kernel_bfs(self, ctx: ComputeContext, seeds: np.ndarray) -> None:
        """Expand through contiguous carriers; notify all remote neighbors."""
        sg, st = ctx.subgraph, ctx.state
        newly, expanded_now = expand_to_fixpoint(
            sg.indptr,
            sg.indices,
            seeds,
            st["colored"],
            st["expanded"],
            vertex_ok=st["has_meme"],
        )
        st["colored_at"][newly] = ctx.timestep
        remote = sg.remote
        if not len(remote) or not expanded_now.size:
            return
        mask = np.zeros(sg.num_vertices, dtype=bool)
        mask[expanded_now] = True
        rows = np.nonzero(mask[remote.src_local])[0]
        for dst_sg, verts in group_unique_pairs(
            remote.dst_subgraph[rows], remote.dst_global[rows]
        ):
            ctx.send_to_subgraph(dst_sg, verts)

    # -- TI-BSP hooks --------------------------------------------------------------------

    def compute(self, ctx: ComputeContext) -> None:
        sg, st = ctx.subgraph, ctx.state
        frontier: list[np.ndarray] = []
        if ctx.superstep == 0:
            if "colored" not in st:
                self._init_state(ctx)
            st["has_meme"] = self._has_meme_mask(ctx)
            # Each vertex is expanded at most once per timestep, regardless of
            # how many supersteps touch it.
            st["expanded"] = np.zeros(sg.num_vertices, dtype=bool)
            colored, colored_at = st["colored"], st["colored_at"]
            if ctx.timestep == 0:
                # Seeds: all vertices carrying the meme now (Alg 1, line 4).
                seeds = np.nonzero(st["has_meme"] & ~colored)[0]
                colored[seeds] = True
                colored_at[seeds] = 0
                frontier.append(seeds)
            else:
                # Resume from the colored set's active boundary (C*).
                frontier.append(st["local_roots"])
        else:
            colored, colored_at = st["colored"], st["colored_at"]
            has_meme = st["has_meme"]
            for msg in ctx.messages:
                locs = np.atleast_1d(
                    sg.local_of(np.asarray(msg.payload, dtype=np.int64))
                )
                new = (~colored[locs]) & has_meme[locs]
                if new.any():
                    fresh = locs[new]
                    colored[fresh] = True
                    colored_at[fresh] = ctx.timestep
                    frontier.append(fresh)
        seeds = (
            np.unique(np.concatenate(frontier)) if frontier else np.empty(0, dtype=np.int64)
        )
        if seeds.size:
            self._kernel_bfs(ctx, seeds)
        ctx.vote_to_halt()

    def end_of_timestep(self, ctx: EndOfTimestepContext) -> None:
        sg, st = ctx.subgraph, ctx.state
        colored, colored_at = st["colored"], st["colored_at"]
        newly = colored_at == ctx.timestep
        if newly.any():
            ctx.output(MemeFrontier(ctx.timestep, sg.vertices[newly].copy()))
        # Boundary of the colored set: colored vertices with an uncolored
        # local neighbor or a remote edge — the only useful next-step roots.
        if "slot_src" not in st:
            st["slot_src"] = np.repeat(
                np.arange(sg.num_vertices, dtype=np.int64), np.diff(sg.indptr)
            )
            has_remote = np.zeros(sg.num_vertices, dtype=bool)
            has_remote[sg.remote.src_local] = True
            st["has_remote"] = has_remote
        border = any_neighbor(st["slot_src"], sg.indices, ~colored)
        st["local_roots"] = np.nonzero(colored & (border | st["has_remote"]))[0]
        # Meme tracking runs the full time range (spread can resume at any
        # later instance), so no vote_to_halt_timestep; keep the app alive.
        ctx.send_to_next_timestep(int(newly.sum()))


def colored_timesteps_from_result(result) -> dict[int, int]:
    """Vertex → first-colored timestep, assembled from an :class:`AppResult`."""
    colored: dict[int, int] = {}
    for _t, _sg, rec in result.outputs:
        if isinstance(rec, MemeFrontier):
            for v in rec.vertices:
                colored.setdefault(int(v), rec.timestep)
    return colored
