"""Time-series graph data model (paper Section II-A).

A *time-series graph collection* Γ = ⟨Ĝ, G, t0, δ⟩ pairs a time-invariant
:class:`~repro.graph.template.GraphTemplate` with an ordered series of
:class:`~repro.graph.instance.GraphInstance` objects carrying the
time-variant attribute values.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".attributes": ("AttributeSchema", "AttributeSpec", "AttributeTable", "Ragged"),
    ".builders": ("GraphTemplateBuilder",),
    ".collection": ("LazyInstances", "TimeSeriesGraphCollection", "build_collection"),
    ".instance": ("IS_EXISTS", "GraphInstance"),
    ".subgraph": ("RemoteEdges", "Subgraph"),
    ".template": ("GraphTemplate",),
})
