"""Performance instrumentation (the APEX analog, paper ref. [38]).

Counters aggregate per kernel kind; timers measure wall or virtual time;
the registry renders the same per-kernel tables HPX performance counters
and APEX produce for Octo-Tiger.
"""

from repro.profiling.apex import (
    CounterRegistry,
    ScopedTimer,
    global_registry,
    report,
)

__all__ = [
    "CounterRegistry",
    "ScopedTimer",
    "global_registry",
    "report",
]
