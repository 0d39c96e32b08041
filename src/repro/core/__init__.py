"""TI-BSP core: the paper's programming abstraction (Sections II-C/D).

Users subclass :class:`~repro.core.computation.TimeSeriesComputation`,
declare a :class:`~repro.core.patterns.Pattern`, and run it with
:class:`~repro.core.engine.TIBSPEngine` (or the
:func:`~repro.core.engine.run_application` convenience wrapper).
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".computation": ("TimeSeriesComputation",),
    ".context": ("ComputeContext", "EndOfTimestepContext", "MergeContext"),
    ".engine": ("EngineConfig", "TIBSPEngine", "run_application"),
    ".messages": ("Message", "MessageKind", "SendBuffer"),
    ".patterns": ("Pattern",),
    ".results": ("AppResult",),
})
