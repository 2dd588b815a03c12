"""Localities and the runtime — the distributed half of the AMT.

An HPX *locality* is a process-like address space with its own worker pool.
A :class:`Runtime` holds the localities, one virtual clock and the network
model; traffic between localities is whatever the program sends over that
model (the DES driver's ghost bundles, :mod:`repro.core.distributed`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.amt.engine import Engine
from repro.amt.future import Future
from repro.amt.network import NetworkModel
from repro.amt.scheduler import WorkerPool
from repro.amt.task import Task


class Locality:
    """One simulated process: a worker pool plus per-locality state."""

    def __init__(self, runtime: "Runtime", locality_id: int, n_workers: int) -> None:
        self.runtime = runtime
        self.id = locality_id
        self.pool = WorkerPool(runtime.engine, n_workers, name=f"loc{locality_id}")
        #: Arbitrary application state (e.g. this locality's sub-grids).
        self.state: Dict[str, Any] = {}

    def async_after(
        self,
        deps: List[Future],
        fn: Optional[Callable[..., Any]],
        *args: Any,
        cost: Any = 0.0,
        name: str = "",
        kind: str = "task",
        effects: Any = None,
    ) -> Future:
        """``hpx::dataflow`` — schedule once all ``deps`` are ready."""
        return self.pool.submit_after(
            deps, Task(fn, args, cost=cost, name=name, kind=kind, effects=effects)
        )

    def async_sharded(
        self,
        deps: List[Future],
        fn: Optional[Callable[..., Any]],
        cost: float = 0.0,
        shards: int = 1,
        name: str = "",
        kind: str = "task",
        effects: Any = None,
    ) -> Future:
        """Work-split ``hpx::dataflow``: one payload, ``shards`` cost slices
        the pool can interleave (see :meth:`WorkerPool.submit_sharded`);
        ``effects`` ride on the payload's task."""
        return self.pool.submit_sharded(
            deps, fn, cost=cost, shards=shards, name=name, kind=kind,
            effects=effects,
        )

    def __repr__(self) -> str:
        return f"<Locality {self.id} workers={self.pool.n_workers}>"


class Runtime:
    """The distributed runtime: localities + network."""

    def __init__(
        self,
        n_localities: int = 1,
        workers_per_locality: int = 4,
        network: Optional[NetworkModel] = None,
        engine: Optional[Engine] = None,
    ) -> None:
        if n_localities < 1:
            raise ValueError("n_localities must be >= 1")
        self.engine = engine or Engine()
        self.network = network or NetworkModel()
        self.localities: List[Locality] = [
            Locality(self, i, workers_per_locality) for i in range(n_localities)
        ]

    @property
    def n_localities(self) -> int:
        return len(self.localities)

    def install_observer(self, observer: Any) -> None:
        """Attach a task-lifecycle observer (e.g. the race detector) to
        every locality's worker pool; pass None to detach."""
        for loc in self.localities:
            loc.pool.observer = observer

    # -- execution ----------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event queue; returns final virtual time."""
        return self.engine.run(until=until, max_events=max_events)

    def run_until_ready(
        self,
        future: Future,
        max_events: int = 10_000_000,
        watchdog: Any = None,
    ) -> Any:
        """Run the engine until ``future`` resolves, then return its value.

        ``watchdog`` (a :class:`repro.resilience.watchdog.DeadlockWatchdog`)
        upgrades the quiesced-but-unfinished case from a generic error to a
        typed :class:`~repro.resilience.watchdog.DeadlockError` naming the
        stalled future chain.
        """
        processed = 0
        while not future.is_ready():
            if not self.engine.step():
                if watchdog is not None:
                    raise watchdog.diagnose(future)
                raise RuntimeError(
                    f"event queue drained but future {future.name!r} never resolved "
                    "(deadlock: a dependency was never scheduled)"
                )
            processed += 1
            if processed > max_events:
                raise RuntimeError("max_events exceeded waiting for future")
        return future.get()

    def total_busy_time(self) -> float:
        return sum(loc.pool.busy_time for loc in self.localities)

    def utilization(self) -> float:
        if self.engine.now <= 0:
            return 0.0
        capacity = self.engine.now * sum(l.pool.n_workers for l in self.localities)
        return self.total_busy_time() / capacity
