"""Community evolution over time-series graphs (paper Section II-B).

    "...one may perform clustering on each instance and find their
    intersection to show how communities evolve.  Here, the initial ...
    clustering can happen independently on each instance, but a merge step
    would perform the aggregation."

An eventually dependent TI-BSP application: each timestep computes that
instance's communities — weak components over the edges existing at that
instance (the ``is_exists`` convention) — fully independently; the Merge
step assembles the per-timestep label matrix and derives evolution events
(births, deaths, splits, merges of non-singleton communities) between
consecutive instances.

Per-instance community detection is itself subgraph-centric: each subgraph
labels its *local* components (which may be several once missing edges cut
it apart) and propagates label minima over currently existing remote edges
until fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.computation import TimeSeriesComputation
from ..core.context import ComputeContext, EndOfTimestepContext, MergeContext
from ..core.patterns import Pattern
from ..graph.instance import IS_EXISTS
from ..kernels import csr_components

__all__ = [
    "CommunityEvolutionComputation",
    "CommunityEvolutionSummary",
    "community_events",
]


@dataclass(frozen=True)
class CommunityEvolutionSummary:
    """The master subgraph's Merge output.

    ``labels[t, v]`` is vertex ``v``'s community label (min member index) at
    timestep ``t``; the event arrays hold one entry per *transition*
    ``t → t+1``.
    """

    labels: np.ndarray  #: (T, |V|) int64
    num_communities: np.ndarray  #: non-singleton communities per timestep
    births: np.ndarray
    deaths: np.ndarray
    splits: np.ndarray
    merges: np.ndarray


def community_events(prev: np.ndarray, curr: np.ndarray) -> dict[str, int]:
    """Count evolution events between two label vectors.

    Only non-singleton communities count.  A community at ``curr`` whose
    members belonged to ≥2 non-singleton communities before is a *merge*; a
    community at ``prev`` whose members scatter into ≥2 non-singleton
    communities now is a *split*; a community whose members were all
    singletons before is a *birth*; one whose members are all singletons now
    is a *death*.
    """
    prev = np.asarray(prev)
    curr = np.asarray(curr)

    def nonsingleton(labels: np.ndarray) -> dict[int, np.ndarray]:
        values, counts = np.unique(labels, return_counts=True)
        return {
            int(v): np.nonzero(labels == v)[0]
            for v, c in zip(values, counts)
            if c >= 2
        }

    prev_comms = nonsingleton(prev)
    curr_comms = nonsingleton(curr)
    births = deaths = splits = merges = 0
    for members in curr_comms.values():
        ancestors = {int(prev[v]) for v in members if int(prev[v]) in prev_comms}
        if not ancestors:
            births += 1
        elif len(ancestors) >= 2:
            merges += 1
    for members in prev_comms.values():
        descendants = {int(curr[v]) for v in members if int(curr[v]) in curr_comms}
        if not descendants:
            deaths += 1
        elif len(descendants) >= 2:
            splits += 1
    return {"births": births, "deaths": deaths, "splits": splits, "merges": merges}


class CommunityEvolutionComputation(TimeSeriesComputation):
    """Per-instance communities + evolution events at Merge.

    Parameters
    ----------
    num_vertices:
        ``|V̂|`` of the template (the master needs it to assemble the label
        matrix).
    master_subgraph:
        Subgraph performing the final assembly.
    exists_attr:
        Boolean edge attribute gating each instance's edges (a missing
        column means all edges always exist — communities then never
        change).
    """

    pattern = Pattern.EVENTUALLY_DEPENDENT

    def __init__(
        self,
        num_vertices: int,
        master_subgraph: int = 0,
        exists_attr: str = IS_EXISTS,
    ) -> None:
        self.num_vertices = int(num_vertices)
        self.master_subgraph = int(master_subgraph)
        self.exists_attr = exists_attr

    # -- per-instance component machinery -----------------------------------------------

    def _local_components(self, ctx: ComputeContext) -> None:
        """Label this subgraph's components over currently existing edges."""
        sg, st = ctx.subgraph, ctx.state
        if self.exists_attr in ctx.instance.template.edge_schema:
            mask_local, exists_remote = (
                ctx.take_edges(self.exists_attr, rows).astype(bool)
                for rows in (sg.edge_index, sg.remote.edge_index)
            )
        else:
            mask_local, exists_remote = (
                np.ones(len(rows), dtype=bool) for rows in (sg.edge_index, sg.remote.edge_index)
            )
        st["exists_remote"] = exists_remote

        ncomp, comp_id = csr_components(sg.indptr, sg.indices, edge_mask=mask_local)
        comp_label = np.full(ncomp, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(comp_label, comp_id, sg.vertices)
        st["comp_id"] = comp_id
        st["comp_label"] = comp_label

    def _broadcast_forward(self, ctx: ComputeContext, comps: np.ndarray) -> None:
        """Ship ``comps``'s labels over existing outgoing remote edges."""
        sg, st = ctx.subgraph, ctx.state
        remote = sg.remote
        if not len(remote):
            return
        comp_id, comp_label = st["comp_id"], st["comp_label"]
        in_comps = np.isin(comp_id[remote.src_local], comps) & st["exists_remote"]
        rows = np.nonzero(in_comps)[0]
        if not len(rows):
            return
        dst_sg = remote.dst_subgraph[rows]
        for dst in np.unique(dst_sg):
            sel = rows[dst_sg == dst]
            ctx.send_to_subgraph(
                int(dst),
                (
                    "fwd",
                    remote.dst_global[sel].copy(),
                    comp_label[comp_id[remote.src_local[sel]]],
                ),
            )

    def _echo(self, ctx: ComputeContext, targets: dict[int, list[int]]) -> None:
        """Reply our vertices' labels to subgraphs that forwarded to them.

        Weak connectivity on *directed* templates needs labels to flow
        against edge direction too; the echo is how a min travels back to a
        sender that has no incoming edge from us.
        """
        sg, st = ctx.subgraph, ctx.state
        comp_id, comp_label = st["comp_id"], st["comp_label"]
        for dst, locals_ in targets.items():
            lv = np.asarray(sorted(set(locals_)), dtype=np.int64)
            ctx.send_to_subgraph(
                int(dst), ("echo", sg.vertices[lv].copy(), comp_label[comp_id[lv]])
            )

    # -- TI-BSP hooks ----------------------------------------------------------------------

    def compute(self, ctx: ComputeContext) -> None:
        sg, st = ctx.subgraph, ctx.state
        if ctx.superstep == 0:
            self._local_components(ctx)
            if "rows_by_dst" not in st:
                by_dst: dict[int, list[int]] = {}
                for row, dst in enumerate(sg.remote.dst_global):
                    by_dst.setdefault(int(dst), []).append(row)
                st["rows_by_dst"] = {
                    d: np.asarray(rows, dtype=np.int64) for d, rows in by_dst.items()
                }
            st["forwarders"] = {}
            self._broadcast_forward(ctx, np.arange(len(st["comp_label"])))
            ctx.vote_to_halt()
            return

        comp_id, comp_label = st["comp_id"], st["comp_label"]
        forwarders: dict[int, set[int]] = st["forwarders"]
        changed: set[int] = set()
        echo_targets: dict[int, list[int]] = {}
        for msg in ctx.messages:
            kind, verts, labels = msg.payload
            if kind == "fwd":
                locs = sg.local_of(np.asarray(verts, dtype=np.int64))
                for lv, label in zip(np.atleast_1d(locs), np.atleast_1d(labels)):
                    lv, c = int(lv), int(comp_id[lv])
                    forwarders.setdefault(lv, set()).add(msg.source_subgraph)
                    if label < comp_label[c]:
                        comp_label[c] = label
                        changed.add(c)
                    elif label > comp_label[c]:
                        # Sender is behind: echo our better label back.
                        echo_targets.setdefault(msg.source_subgraph, []).append(lv)
            else:  # echo about OUR remote-edge targets
                rows_by_dst = st["rows_by_dst"]
                exists_remote = st["exists_remote"]
                for w, label in zip(np.atleast_1d(verts), np.atleast_1d(labels)):
                    for row in rows_by_dst.get(int(w), ()):
                        if exists_remote[row]:
                            c = int(comp_id[sg.remote.src_local[row]])
                            if label < comp_label[c]:
                                comp_label[c] = label
                                changed.add(c)
        if changed:
            comps = np.asarray(sorted(changed), dtype=np.int64)
            self._broadcast_forward(ctx, comps)
            # Vertices of changed comps with known forwarders get echoes too.
            for lv, sources in forwarders.items():
                if comp_id[lv] in changed:
                    for src in sources:
                        echo_targets.setdefault(src, []).append(int(lv))
        if echo_targets:
            self._echo(ctx, echo_targets)
        ctx.vote_to_halt()

    def end_of_timestep(self, ctx: EndOfTimestepContext) -> None:
        st = ctx.state
        labels = st["comp_label"][st["comp_id"]]
        ctx.send_to_merge((ctx.timestep, ctx.subgraph.vertices.copy(), labels.copy()))

    # -- merge phase -------------------------------------------------------------------------

    def merge(self, ctx: MergeContext) -> None:
        if ctx.superstep == 0:
            ctx.send_to_subgraph(
                self.master_subgraph, [m.payload for m in ctx.messages]
            )
            if ctx.subgraph.subgraph_id != self.master_subgraph:
                ctx.vote_to_halt()
            return
        if ctx.subgraph.subgraph_id == self.master_subgraph and ctx.messages:
            T = max(t for m in ctx.messages for (t, _v, _l) in m.payload) + 1
            labels = np.full((T, self.num_vertices), -1, dtype=np.int64)
            for m in ctx.messages:
                for t, verts, chunk in m.payload:
                    labels[t, verts] = chunk
            num_communities = np.zeros(T, dtype=np.int64)
            for t in range(T):
                values, counts = np.unique(labels[t], return_counts=True)
                num_communities[t] = int(np.sum(counts >= 2))
            events = [community_events(labels[t - 1], labels[t]) for t in range(1, T)]
            ctx.output(
                CommunityEvolutionSummary(
                    labels=labels,
                    num_communities=num_communities,
                    births=np.asarray([e["births"] for e in events], dtype=np.int64),
                    deaths=np.asarray([e["deaths"] for e in events], dtype=np.int64),
                    splits=np.asarray([e["splits"] for e in events], dtype=np.int64),
                    merges=np.asarray([e["merges"] for e in events], dtype=np.int64),
                )
            )
        ctx.vote_to_halt()
