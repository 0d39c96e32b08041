"""TI-BSP core: the paper's programming abstraction (Sections II-C/D).

Users subclass :class:`~repro.core.computation.TimeSeriesComputation`,
declare a :class:`~repro.core.patterns.Pattern`, and run it with
:class:`~repro.core.engine.TIBSPEngine` (or the
:func:`~repro.core.engine.run_application` convenience wrapper).
"""

from .computation import TimeSeriesComputation
from .context import ComputeContext, EndOfTimestepContext, MergeContext
from .engine import EngineConfig, TIBSPEngine, run_application
from .messages import Message, MessageKind, SendBuffer
from .patterns import Pattern
from .results import AppResult

__all__ = [
    "TimeSeriesComputation",
    "ComputeContext",
    "EndOfTimestepContext",
    "MergeContext",
    "EngineConfig",
    "TIBSPEngine",
    "run_application",
    "Message",
    "MessageKind",
    "SendBuffer",
    "Pattern",
    "AppResult",
]
