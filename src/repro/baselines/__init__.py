"""Vertex-centric baseline ("Giraph"/Pregel on the TI-BSP engine) and Fig 5b harness."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".comparison": ("Fig5bRow", "fig5b_comparison"),
    ".vertex_adapter": (
        "VertexCentricAdapter", "vertex_values_from_result", "VertexComputation",
        "VertexContext",
    ),
    ".vertex_algorithms": ("VertexBFS", "VertexPageRank", "VertexSSSP"),
})
