"""Execution spaces: where kernels run and what they cost.

All spaces execute the *same functor* — the portability contract.  They
differ in

* how the index range is decomposed (inline; ``tasks_per_kernel`` AMT tasks;
  one device launch),
* the virtual cost charged (core throughput x SIMD factor; GPU throughput +
  launch latency),
* bookkeeping (kernel/launch/task counters used by the benches).

Functor contract: ``functor(begin, end)`` performs the work for the half-open
flat index range — typically vectorised NumPy over that slice.  For
reductions the functor returns a partial value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.amt.future import Future, make_ready_future, when_all
from repro.amt.locality import Locality
from repro.kokkos.policies import RangePolicy
from repro.kokkos.view import DeviceSpaceTag, HostSpace, sanctioned_crossing
from repro.simd.abi import get_abi


@dataclass
class KernelStats:
    """Counters every execution space maintains."""

    launches: int = 0
    tasks: int = 0
    items: int = 0
    virtual_time: float = 0.0

    def record(self, tasks: int, items: int, time: float) -> None:
        self.launches += 1
        self.tasks += tasks
        self.items += items
        self.virtual_time += time


class ExecutionSpace:
    """Base class: cost model + dispatch interface."""

    name = "abstract"
    #: The memory space this execution space natively addresses: Views a
    #: functor touches should live here (the sanitizer polices the rest).
    memory_space = HostSpace

    def __init__(self) -> None:
        self.stats = KernelStats()

    # -- cost model --------------------------------------------------------
    def item_cost(self, policy: RangePolicy) -> float:
        """Virtual seconds per iteration item."""
        raise NotImplementedError

    def range_cost(self, policy: RangePolicy, items: int) -> float:
        return items * self.item_cost(policy)

    # -- dispatch ------------------------------------------------------------
    def dispatch(
        self, policy: RangePolicy, functor: Callable[[int, int], Any], kind: str
    ) -> Future:
        """Run the functor over the policy range; returns a future of the
        list of per-chunk results."""
        raise NotImplementedError

    def fence(self) -> None:
        """Block until all work launched on this space completed.

        Spaces backed by the virtual clock cannot block; the AMT engine's
        ``run``/``run_until_ready`` plays that role.  Provided for interface
        parity; a no-op for inline spaces.
        """


class SerialSpace(ExecutionSpace):
    """Kokkos Serial: the functor runs inline on the calling thread."""

    name = "serial"

    def __init__(self, flops_per_second: float = 3.0e9, simd_abi: str = "scalar") -> None:
        super().__init__()
        self.flops_per_second = flops_per_second
        self.simd = get_abi(simd_abi)

    def item_cost(self, policy: RangePolicy) -> float:
        speedup = self.simd.speedup_factor() if policy.vectorizable else 1.0
        return policy.work_per_item / (self.flops_per_second * speedup)

    def dispatch(
        self, policy: RangePolicy, functor: Callable[[int, int], Any], kind: str
    ) -> Future:
        result = functor(policy.begin, policy.end) if policy.size else None
        self.stats.record(1, policy.size, self.range_cost(policy, policy.size))
        return make_ready_future([result], name=kind)


class HpxSpace(ExecutionSpace):
    """Kokkos HPX execution space: kernels become AMT tasks.

    ``tasks_per_kernel`` controls the split of one kernel launch into HPX
    tasks (paper §VII-C).  One task keeps the hot-cache benefit; many tasks
    avoid starvation during distributed tree traversals.
    """

    name = "hpx"

    def __init__(
        self,
        locality: Locality,
        tasks_per_kernel: int = 1,
        flops_per_second_per_core: float = 3.0e9,
        simd_abi: str = "scalar",
    ) -> None:
        super().__init__()
        if tasks_per_kernel < 1:
            raise ValueError("tasks_per_kernel must be >= 1")
        self.locality = locality
        self.tasks_per_kernel = tasks_per_kernel
        self.flops_per_second_per_core = flops_per_second_per_core
        self.simd = get_abi(simd_abi)

    def item_cost(self, policy: RangePolicy) -> float:
        speedup = self.simd.speedup_factor() if policy.vectorizable else 1.0
        return policy.work_per_item / (self.flops_per_second_per_core * speedup)

    def dispatch(
        self, policy: RangePolicy, functor: Callable[[int, int], Any], kind: str
    ) -> Future:
        chunks = policy.chunks(self.tasks_per_kernel)
        if not chunks:
            self.stats.record(0, 0, 0.0)
            return make_ready_future([], name=kind)
        futures = []
        total_cost = 0.0
        for begin, end in chunks:
            cost = self.range_cost(policy, end - begin)
            total_cost += cost
            futures.append(
                self.locality.async_(
                    functor, begin, end, cost=cost, name=f"{kind}[{begin}:{end}]", kind=kind
                )
            )
        self.stats.record(len(chunks), policy.size, total_cost)
        return when_all(futures)


@dataclass
class _PendingLaunch:
    policy: RangePolicy
    functor: Callable[[int, int], Any]
    kind: str
    future_slot: Future


class DeviceSpace(ExecutionSpace):
    """A simulated GPU execution space (Kokkos CUDA analog).

    One kernel launch pays ``launch_latency_s`` then executes the whole range
    at ``flops_per_second`` device throughput.  ``aggregation_size > 1``
    enables the work-aggregation scheme of paper ref. [9]: consecutive small
    launches of the same kind are batched and pay one launch latency.
    Launch execution is serialised per stream, round-robin across
    ``n_streams``.
    """

    name = "device"
    memory_space = DeviceSpaceTag

    def __init__(
        self,
        locality: Locality,
        flops_per_second: float = 7.0e12,
        launch_latency_s: float = 10e-6,
        n_streams: int = 4,
        aggregation_size: int = 1,
    ) -> None:
        super().__init__()
        if aggregation_size < 1:
            raise ValueError("aggregation_size must be >= 1")
        self.locality = locality
        self.flops_per_second = flops_per_second
        self.launch_latency_s = launch_latency_s
        self.n_streams = n_streams
        self.aggregation_size = aggregation_size
        self._pending: Dict[str, List[_PendingLaunch]] = {}
        self._next_stream = 0
        #: Virtual time each stream becomes free; managed by the engine posts.
        self._stream_free: List[float] = [0.0] * n_streams

    def item_cost(self, policy: RangePolicy) -> float:
        # GPUs run the scalar code path; SIMD types compile to scalar there.
        return policy.work_per_item / self.flops_per_second

    def dispatch(
        self, policy: RangePolicy, functor: Callable[[int, int], Any], kind: str
    ) -> Future:
        slot = Future(name=f"{kind}.device")
        launch = _PendingLaunch(policy, functor, kind, slot)
        batch = self._pending.setdefault(kind, [])
        batch.append(launch)
        if len(batch) >= self.aggregation_size:
            self._flush(kind)
        else:
            # Flush at the current virtual instant if nothing joins the batch.
            self.locality.runtime.engine.post(0.0, lambda: self._flush(kind))
        return slot

    def _flush(self, kind: str) -> None:
        batch = self._pending.get(kind)
        if not batch:
            return
        self._pending[kind] = []
        engine = self.locality.runtime.engine
        stream = self._next_stream
        self._next_stream = (self._next_stream + 1) % self.n_streams

        exec_cost = sum(
            l.policy.size * self.item_cost(l.policy) for l in batch
        )
        total = self.launch_latency_s + exec_cost
        start = max(engine.now, self._stream_free[stream])
        finish = start + total
        self._stream_free[stream] = finish
        items = sum(l.policy.size for l in batch)
        self.stats.record(len(batch), items, total)

        def complete() -> None:
            # The functor executes *in* the device space: touching
            # device-backend storage here is legal, so the host-ufunc guard
            # is suspended for the launch (the analog of device code
            # dereferencing device pointers).
            with sanctioned_crossing():
                for l in batch:
                    result = (
                        l.functor(l.policy.begin, l.policy.end)
                        if l.policy.size
                        else None
                    )
                    l.future_slot._set_value([result])  # noqa: SLF001

        engine.post_at(finish, complete)
