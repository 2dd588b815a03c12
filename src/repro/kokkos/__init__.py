"""Performance-portability layer (the Kokkos analog).

Kernels are written once as functors over an index range and dispatched to
an *execution space*:

* :class:`~repro.kokkos.spaces.SerialSpace` — runs inline (Kokkos Serial).
* :class:`~repro.kokkos.spaces.HpxSpace` — splits the range into
  ``tasks_per_kernel`` AMT tasks on a locality's worker pool (the Kokkos HPX
  execution space; the knob is the paper's Fig. 9 experiment).
* :class:`~repro.kokkos.spaces.DeviceSpace` — a simulated GPU with kernel
  launch latency, streams and work aggregation (the CUDA execution space +
  the work-aggregation technique of paper ref. [9]).

:func:`~repro.kokkos.parallel.parallel_for_async` returns an AMT future, the
HPX-Kokkos integration that lets kernels participate in HPX dependency
graphs.
"""

from repro.kokkos.backend import ArrayBackend, get_backend
from repro.kokkos.view import (
    View,
    deep_copy,
    HostSpace,
    DeviceSpaceTag,
    sanctioned_crossing,
    transfer_counter,
)
from repro.kokkos.policies import RangePolicy, MDRangePolicy, TeamPolicy
from repro.kokkos.spaces import (
    ExecutionSpace,
    SerialSpace,
    HpxSpace,
    DeviceSpace,
    KernelStats,
)
from repro.kokkos.parallel import (
    parallel_for,
    parallel_for_async,
)

__all__ = [
    "ArrayBackend",
    "get_backend",
    "sanctioned_crossing",
    "View",
    "deep_copy",
    "HostSpace",
    "DeviceSpaceTag",
    "transfer_counter",
    "RangePolicy",
    "MDRangePolicy",
    "TeamPolicy",
    "ExecutionSpace",
    "SerialSpace",
    "HpxSpace",
    "DeviceSpace",
    "KernelStats",
    "parallel_for",
    "parallel_for_async",
]
