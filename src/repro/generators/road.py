"""CARN-like road network templates.

The paper's California Road Network (1.96 M vertices, 2.77 M edges,
diameter 849) has the structural signature of road graphs: near-planar,
uniform low degree (avg ≈ 2.8), very large diameter.  SNAP downloads are
unavailable offline, so we synthesize the same regime at configurable scale:
an elongated W×H grid where all horizontal edges are kept (a "comb" that
guarantees connectivity together with the first column) and only a fraction
of vertical edges survive, bringing the average degree down to road-like
values while keeping the diameter of order W+H.

The generator is deterministic per seed and returns a plain
:class:`~repro.graph.template.GraphTemplate` whose schemas declare the
``latency`` edge attribute used by the TDSP workload and a ``traffic``
vertex attribute used by the Top-N example.
"""

from __future__ import annotations

import numpy as np

from ..graph.attributes import AttributeSchema, AttributeSpec
from ..graph.template import GraphTemplate

__all__ = ["road_network", "grid_dimensions"]


def grid_dimensions(num_vertices: int, aspect: float = 4.0) -> tuple[int, int]:
    """Pick W×H ≈ ``num_vertices`` with H/W ≈ ``aspect`` (elongation → diameter)."""
    if num_vertices < 1:
        raise ValueError("num_vertices must be positive")
    w = max(2, int(round(np.sqrt(num_vertices / aspect))))
    h = max(2, int(np.ceil(num_vertices / w)))
    return w, h


def road_network(
    num_vertices: int = 20_000,
    *,
    seed: int = 0,
    vertical_keep: float = 0.4,
    aspect: float = 4.0,
    vertex_schema: AttributeSchema | None = None,
    edge_schema: AttributeSchema | None = None,
    name: str = "CARN",
) -> GraphTemplate:
    """Generate a road-like template.

    Parameters
    ----------
    num_vertices:
        Approximate vertex count (rounded up to a W×H grid).
    vertical_keep:
        Fraction of vertical grid edges kept; 0.4 yields an average degree
        near CARN's 2.8 (avg degree ≈ 2·(1 + vertical_keep)).
    aspect:
        Grid elongation H/W; larger → larger diameter.
    seed:
        RNG seed (fully deterministic output).

    The result is connected: every horizontal edge is kept (each row is a
    path) and every vertical edge of column 0 is kept (rows are chained).
    """
    if not 0.0 <= vertical_keep <= 1.0:
        raise ValueError("vertical_keep must be in [0, 1]")
    rng = np.random.default_rng(seed)
    w, h = grid_dimensions(num_vertices, aspect)
    n = w * h
    rows, cols = np.divmod(np.arange(n, dtype=np.int64), w)

    # Horizontal edges: (r, c) -- (r, c+1), all kept.
    h_src = np.nonzero(cols < w - 1)[0]
    h_dst = h_src + 1
    # Vertical edges: (r, c) -- (r+1, c), kept at vertical_keep (col 0 always).
    v_src = np.nonzero(rows < h - 1)[0]
    v_dst = v_src + w
    v_keep = (rng.random(len(v_src)) < vertical_keep) | (cols[v_src] == 0)
    v_src, v_dst = v_src[v_keep], v_dst[v_keep]

    src = np.concatenate([h_src, v_src])
    dst = np.concatenate([h_dst, v_dst])
    return GraphTemplate(
        n,
        src,
        dst,
        directed=False,
        # The paper runs the tweet workloads (MEME/HASH) on CARN too, so the
        # default schema carries both road and social attributes.
        vertex_schema=vertex_schema
        or AttributeSchema([AttributeSpec("tweets", "ragged"), AttributeSpec("traffic", "float")]),
        edge_schema=edge_schema or AttributeSchema([AttributeSpec("latency", "float")]),
        name=name,
    )
