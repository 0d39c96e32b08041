"""Ground-truth reference implementations (centralized, single-process).

Every distributed TI-BSP algorithm in this package has a plain, obviously
correct counterpart here, computed directly on the template/collection
without partitioning or message passing.  The test suite asserts that the
distributed results match these references exactly — the repo's primary
correctness anchor (see DESIGN.md §4).

Semantics notes
---------------
* **TDSP** (:func:`time_expanded_dijkstra`) follows the paper's discrete-time
  model: departing vertex ``v`` at time ``τ`` inside instance ``i`` (i.e.
  ``iδ ≤ τ < (i+1)δ``) along edge ``e`` is allowed only when
  ``τ + latency_i(e) ≤ (i+1)δ`` — an edge must be traversed wholly within
  one instance window; otherwise the traveler waits at ``v`` until the next
  instance boundary (waiting is always permitted).  This reproduces the
  paper's Fig 5a worked example (estimated 7 vs actual 35 vs optimal 14).
* **Meme tracking** (:func:`temporal_meme_bfs`) colors, at each timestep,
  the vertices that carry the meme and are reachable from the
  previously-colored set through meme-carrying vertices of the *current*
  instance; seeds are the meme-carrying vertices of instance 0.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from ..graph.collection import TimeSeriesGraphCollection
from ..graph.template import GraphTemplate

__all__ = [
    "time_expanded_dijkstra",
    "temporal_meme_bfs",
    "temporal_reachability",
    "hashtag_count_series",
    "single_source_shortest_paths",
    "bfs_levels",
    "weakly_connected_components",
    "instance_communities",
    "pagerank",
]


def time_expanded_dijkstra(
    collection: TimeSeriesGraphCollection,
    source: int,
    *,
    latency_attr: str = "latency",
) -> np.ndarray:
    """Exact discrete-time TDSP labels from ``source`` (``inf`` = unreached).

    Runs Dijkstra over (vertex, continuous time) states with the
    window-confined edge rule and boundary waiting described above.  Times
    are relative to ``t0`` (the paper's convention: start at the source at
    ``t0``).
    """
    template = collection.template
    T = len(collection)
    delta = collection.delta
    horizon = T * delta
    n = template.num_vertices
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    # Pre-gather latency columns once per instance (vectorized reads).
    latencies = [collection.instance(i).edge_column(latency_attr) for i in range(T)]

    heap: list[tuple[float, int]] = [(0.0, source)]
    finalized = np.zeros(n, dtype=bool)
    indptr, indices, edge_idx = template.adjacency
    while heap:
        tau, v = heapq.heappop(heap)
        if finalized[v] or tau > dist[v]:
            continue
        finalized[v] = True
        # From τ the traveler can depart during any instance i' ≥ instance(τ)
        # (waiting to each later boundary); relax each window separately.
        i0 = int(tau // delta)
        for i in range(i0, T):
            depart = max(tau, i * delta)
            window_end = (i + 1) * delta
            lat = latencies[i]
            for slot in range(indptr[v], indptr[v + 1]):
                w = int(indices[slot])
                arr = depart + float(lat[edge_idx[slot]])
                if arr <= window_end and arr < dist[w] and arr <= horizon:
                    dist[w] = arr
                    heapq.heappush(heap, (arr, w))
    return dist


def _ragged_rows(column) -> list:
    """A ragged column's rows as Python sequences, each ``(owner, value)``
    pair appended to its owner's row one at a time — the oracles' own walk,
    not the kernels'.  Empty rows share one empty tuple."""
    rows: list = [()] * column.n
    for owner, value in zip(column.owners.tolist(), column.values.tolist()):
        rows[owner] = [*rows[owner], value]
    return rows


def temporal_meme_bfs(
    collection: TimeSeriesGraphCollection,
    meme,
    *,
    tweets_attr: str = "tweets",
) -> dict[int, int]:
    """Reference meme spread: vertex → timestep at which it was first colored.

    Seeds are the vertices carrying ``meme`` at instance 0.  At every
    timestep the colored set grows by BFS from it through vertices carrying
    the meme in the current instance.
    """
    template = collection.template
    colored: dict[int, int] = {}
    frontier: set[int] = set()
    for t in range(len(collection)):
        rows = _ragged_rows(collection.instance(t).vertex_column(tweets_attr))
        has_meme = np.fromiter((meme in row for row in rows), dtype=bool, count=len(rows))
        if t == 0:
            queue = deque(np.nonzero(has_meme)[0].tolist())
            for v in queue:
                colored[v] = 0
        else:
            queue = deque()
            for v in frontier:
                for w in template.out_neighbors(v):
                    w = int(w)
                    if w not in colored and has_meme[w]:
                        colored[w] = t
                        queue.append(w)
        # Expand through meme-carrying vertices of the current instance.
        while queue:
            u = queue.popleft()
            for w in template.out_neighbors(u):
                w = int(w)
                if w not in colored and has_meme[w]:
                    colored[w] = t
                    queue.append(w)
        frontier = set(colored)
    return colored


def temporal_reachability(
    collection: TimeSeriesGraphCollection,
    source: int,
    *,
    exists_attr: str = "is_exists",
) -> dict[int, int]:
    """Reference temporal reachability: vertex → earliest-reached timestep.

    Within each instance, any number of hops along edges existing *at that
    instance*; the reached set persists across instances.  A missing
    existence column means every edge always exists.
    """
    template = collection.template
    indptr, indices, edge_idx = template.adjacency
    reached: dict[int, int] = {source: 0}
    for t in range(len(collection)):
        inst = collection.instance(t)
        if exists_attr in template.edge_schema:
            exists = inst.edge_column(exists_attr).astype(bool)
        else:
            exists = np.ones(template.num_edges, dtype=bool)
        queue = deque(reached)
        while queue:
            u = queue.popleft()
            for slot in range(indptr[u], indptr[u + 1]):
                w = int(indices[slot])
                if exists[edge_idx[slot]] and w not in reached:
                    reached[w] = t
                    queue.append(w)
    return reached


def hashtag_count_series(
    collection: TimeSeriesGraphCollection,
    hashtag,
    *,
    tweets_attr: str = "tweets",
) -> np.ndarray:
    """Occurrences of ``hashtag`` across all vertices, per timestep."""
    T = len(collection)
    counts = np.zeros(T, dtype=np.int64)
    for t in range(T):
        # A row may repeat a hashtag (multiple tweets); count all.
        rows = _ragged_rows(collection.instance(t).vertex_column(tweets_attr))
        counts[t] = sum(row.count(hashtag) for row in rows)
    return counts


def single_source_shortest_paths(
    template: GraphTemplate,
    source: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Plain Dijkstra (or BFS when unweighted) on the template."""
    n = template.num_vertices
    indptr, indices, edge_idx = template.adjacency
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    if weights is None:
        # Unweighted: BFS gives hop counts.
        q = deque([source])
        while q:
            u = q.popleft()
            for w in template.out_neighbors(u):
                w = int(w)
                if np.isinf(dist[w]):
                    dist[w] = dist[u] + 1
                    q.append(w)
        return dist
    heap = [(0.0, source)]
    done = np.zeros(n, dtype=bool)
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for slot in range(indptr[v], indptr[v + 1]):
            w = int(indices[slot])
            nd = d + float(weights[edge_idx[slot]])
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def bfs_levels(template: GraphTemplate, source: int) -> np.ndarray:
    """BFS hop counts from ``source`` (alias of unweighted SSSP)."""
    return single_source_shortest_paths(template, source, None)


def _scipy_min_vertex_labels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Min vertex index of each vertex's weak component, by scipy — an
    oracle independent of :mod:`repro.kernels`; no run imports it."""
    try:
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components
    except ImportError as exc:
        raise ImportError(
            "the component oracles need scipy: install the dev extra, pip install -e '.[dev]'"
        ) from exc
    graph = sp.coo_matrix((np.ones(len(src), dtype=np.int8), (src, dst)), shape=(n, n))
    ncomp, raw = connected_components(graph, directed=False)
    first = np.full(ncomp, n, dtype=np.int64)
    np.minimum.at(first, raw, np.arange(n))
    return first[raw]


def weakly_connected_components(template: GraphTemplate) -> np.ndarray:
    """Component label per vertex = min vertex index in its weak component."""
    return _scipy_min_vertex_labels(template.num_vertices, template.edge_src, template.edge_dst)


def instance_communities(
    collection: TimeSeriesGraphCollection,
    timestep: int,
    *,
    exists_attr: str = "is_exists",
) -> np.ndarray:
    """Reference per-instance communities: weak components over existing edges.

    Returns one label per vertex — the minimum global vertex index of its
    component at ``timestep`` (singletons label themselves).
    """
    template = collection.template
    inst = collection.instance(timestep)
    if exists_attr in template.edge_schema:
        exists = inst.edge_column(exists_attr).astype(bool)
    else:
        exists = np.ones(template.num_edges, dtype=bool)
    return _scipy_min_vertex_labels(
        template.num_vertices, template.edge_src[exists], template.edge_dst[exists]
    )


def pagerank(
    template: GraphTemplate,
    *,
    damping: float = 0.85,
    iterations: int = 30,
) -> np.ndarray:
    """Synchronous PageRank power iteration on the template.

    Matches the distributed algorithm exactly: same iteration count, and
    dangling vertices contribute nothing (Pregel's original formulation), so
    tests can compare to tight tolerances.
    """
    n = template.num_vertices
    if n == 0:
        return np.empty(0)
    indptr, indices, _ = template.adjacency
    out_deg = np.diff(indptr).astype(np.float64)
    pr = np.full(n, 1.0 / n)
    slot_src = np.repeat(np.arange(n), np.diff(indptr))
    for _ in range(iterations):
        contrib = np.where(out_deg > 0, pr / np.maximum(out_deg, 1), 0.0)
        incoming = np.zeros(n)
        np.add.at(incoming, indices, contrib[slot_src])
        pr = (1 - damping) / n + damping * incoming
    return pr
