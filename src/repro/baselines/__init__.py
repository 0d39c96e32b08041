"""Vertex-centric baseline ("Giraph"/Pregel on the TI-BSP engine) and Fig 5b harness."""

from .comparison import Fig5bRow, fig5b_comparison
from .vertex_adapter import (
    VertexCentricAdapter,
    VertexComputation,
    VertexContext,
    vertex_values_from_result,
)
from .vertex_algorithms import VertexBFS, VertexPageRank, VertexSSSP

__all__ = [
    "Fig5bRow",
    "fig5b_comparison",
    "VertexCentricAdapter",
    "vertex_values_from_result",
    "VertexComputation",
    "VertexContext",
    "VertexBFS",
    "VertexPageRank",
    "VertexSSSP",
]
