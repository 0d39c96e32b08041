"""WIKI-like small-world templates (power-law degree, tiny diameter).

The paper's Wikipedia Talk Network (2.39 M vertices, 5.02 M directed edges,
diameter 9) is a classic small-world/power-law graph.  We synthesize the
same regime with Barabási–Albert preferential attachment (implemented with
the repeated-endpoints trick), optionally orienting edges to make a directed
graph with a heavy-tailed in-degree distribution.

The key properties the paper's analysis depends on — diameter of a few hops
and an edge-cut percentage that grows steeply with the partition count —
follow from the attachment process, not from the exact exponent.

The attachment process handles new vertices in geometrically growing
chunks: the repeated-endpoints pool is frozen at each chunk start, every
chunk vertex's ``m`` targets are drawn in one batched ``rng.integers`` with
whole-row redraws for rows containing duplicates, and the pool is extended
once per chunk.  Chunks are capped at 1/8 of the already-built graph so the
degree bias a vertex samples from is at most ~12 % stale — the
degree-distribution tail is indistinguishable from the one-vertex-at-a-time
process (see tests/generators/test_vectorized_equivalence.py).  The build is
deterministic in (seed, parameters) across runs and platforms.
"""

from __future__ import annotations

import numpy as np

from ..graph.attributes import AttributeSchema, AttributeSpec
from ..graph.template import GraphTemplate

__all__ = ["smallworld_network", "preferential_attachment_edges"]


def _rows_with_duplicates(targets: np.ndarray) -> np.ndarray:
    """Boolean mask of rows of a small-width int matrix containing repeats."""
    s = np.sort(targets, axis=1)
    return (s[:, 1:] == s[:, :-1]).any(axis=1)


def preferential_attachment_edges(
    num_vertices: int,
    edges_per_vertex: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Barabási–Albert edge list: each new vertex attaches to ``m`` targets.

    Targets are sampled from the repeated-endpoints pool (degree-biased
    sampling), deduplicated per new vertex.
    """
    m = edges_per_vertex
    if num_vertices <= m:
        raise ValueError("num_vertices must exceed edges_per_vertex")
    if m < 1:
        raise ValueError("edges_per_vertex must be positive")
    start = m + 1
    num_new = num_vertices - start
    clique_edges = start * m // 2
    total_edges = clique_edges + num_new * m

    src = np.empty(total_edges, dtype=np.int64)
    dst = np.empty(total_edges, dtype=np.int64)
    # The pool holds each edge's two endpoints (degree-biased sampling).
    pool = np.empty(2 * total_edges, dtype=np.int64)

    # Start from a small clique so early vertices have degree.
    ci, cj = np.triu_indices(start, k=1)
    src[:clique_edges], dst[:clique_edges] = cj, ci
    pool[: 2 * clique_edges : 2] = cj
    pool[1 : 2 * clique_edges : 2] = ci

    edge_at = clique_edges
    pool_at = 2 * clique_edges
    v = start
    while v < num_vertices:
        # Freeze the pool for a chunk of at most 1/8 of the built graph:
        # staleness of the degree bias stays bounded while chunk sizes grow
        # geometrically, so the whole build is O(log n) batched rounds.
        chunk = min(num_vertices - v, max(1, v // 8))
        frozen = pool[:pool_at]
        targets = frozen[rng.integers(pool_at, size=(chunk, m))]
        if m > 1:
            # Whole-row redraw for rows with duplicate targets.  Chunk
            # vertices are absent from the frozen pool, so self-attachments
            # cannot occur and duplicates are the only rejection cause.
            bad = np.nonzero(_rows_with_duplicates(targets))[0]
            while len(bad):
                targets[bad] = frozen[rng.integers(pool_at, size=(len(bad), m))]
                bad = bad[_rows_with_duplicates(targets[bad])]
        new_src = np.repeat(np.arange(v, v + chunk, dtype=np.int64), m)
        new_dst = targets.ravel()
        src[edge_at : edge_at + chunk * m] = new_src
        dst[edge_at : edge_at + chunk * m] = new_dst
        pool[pool_at : pool_at + 2 * chunk * m : 2] = new_src
        pool[pool_at + 1 : pool_at + 2 * chunk * m : 2] = new_dst
        edge_at += chunk * m
        pool_at += 2 * chunk * m
        v += chunk
    return src, dst


def smallworld_network(
    num_vertices: int = 20_000,
    *,
    seed: int = 0,
    edges_per_vertex: int = 2,
    directed: bool = True,
    reciprocal_fraction: float = 0.25,
    vertex_schema: AttributeSchema | None = None,
    edge_schema: AttributeSchema | None = None,
    name: str = "WIKI",
) -> GraphTemplate:
    """Generate a WIKI-like template.

    Parameters
    ----------
    num_vertices:
        Vertex count.
    edges_per_vertex:
        BA attachment parameter ``m`` (WIKI's edge/vertex ratio ≈ 2.1).
    directed:
        Directed output (as WIKI is); each BA edge is oriented from the
        newer vertex to the older ("reply to an established user"), and a
        ``reciprocal_fraction`` of edges get a reverse twin.
    """
    rng = np.random.default_rng(seed)
    src, dst = preferential_attachment_edges(num_vertices, edges_per_vertex, rng)
    if directed and reciprocal_fraction > 0:
        back = rng.random(len(src)) < reciprocal_fraction
        src, dst = np.concatenate([src, dst[back]]), np.concatenate([dst, src[back]])
    return GraphTemplate(
        num_vertices,
        src,
        dst,
        directed=directed,
        vertex_schema=vertex_schema
        or AttributeSchema([AttributeSpec("tweets", "ragged"), AttributeSpec("traffic", "float")]),
        edge_schema=edge_schema or AttributeSchema([AttributeSpec("latency", "float")]),
        name=name,
    )
