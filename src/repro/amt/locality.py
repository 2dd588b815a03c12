"""Localities, remote actions and channels — the distributed half of the AMT.

An HPX *locality* is a process-like address space with its own worker pool.
Remote *actions* invoke registered functions on another locality, crossing
the network model; the returned future resolves when the result message
arrives back.  *Channels* are single-producer single-consumer mailboxes used
for ghost-layer exchange, mirroring ``hpx::lcos::channel``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.amt.engine import Engine
from repro.amt.future import Future, Promise
from repro.amt.network import Message, NetworkModel
from repro.amt.scheduler import WorkerPool
from repro.amt.task import Task


class ActionRegistry:
    """Name → callable registry shared by all localities.

    HPX registers actions globally at startup; here registration is explicit
    and names must be unique.
    """

    def __init__(self) -> None:
        self._actions: Dict[str, Callable[..., Any]] = {}

    def register(self, name: str, fn: Callable[..., Any]) -> None:
        if name in self._actions:
            raise ValueError(f"action {name!r} already registered")
        self._actions[name] = fn

    def lookup(self, name: str) -> Callable[..., Any]:
        try:
            return self._actions[name]
        except KeyError:
            raise KeyError(f"unknown action {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._actions


class Locality:
    """One simulated process: a worker pool plus per-locality state."""

    def __init__(self, runtime: "Runtime", locality_id: int, n_workers: int) -> None:
        self.runtime = runtime
        self.id = locality_id
        self.pool = WorkerPool(runtime.engine, n_workers, name=f"loc{locality_id}")
        #: Arbitrary application state (e.g. this locality's sub-grids).
        self.state: Dict[str, Any] = {}

    def async_(
        self,
        fn: Optional[Callable[..., Any]],
        *args: Any,
        cost: Any = 0.0,
        name: str = "",
        kind: str = "task",
        effects: Any = None,
    ) -> Future:
        """``hpx::async`` — schedule a task on this locality."""
        return self.pool.submit_fn(fn, *args, cost=cost, name=name, kind=kind, effects=effects)

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
    """The distributed runtime: localities + network + action registry."""

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
        self.actions = ActionRegistry()
        self.localities: List[Locality] = [
            Locality(self, i, workers_per_locality) for i in range(n_localities)
        ]

    @property
    def n_localities(self) -> int:
        return len(self.localities)

    def here(self) -> Locality:
        """Locality 0, the conventional root (AGAS bootstrap locality)."""
        return self.localities[0]

    def install_observer(self, observer: Any) -> None:
        """Attach a task-lifecycle observer (e.g. the race detector) to
        every locality's worker pool; pass None to detach."""
        for loc in self.localities:
            loc.pool.observer = observer

    # -- remote invocation -------------------------------------------------
    def apply_remote(
        self,
        src: int,
        dst: int,
        action: str,
        *args: Any,
        size_bytes: int = 256,
        result_size_bytes: int = 256,
        cost: Any = 0.0,
        kind: str = "action",
    ) -> Future:
        """Invoke a registered action on locality ``dst`` from ``src``.

        Models: argument message (``size_bytes``) over the wire, task
        execution on the destination pool (virtual ``cost``), result message
        (``result_size_bytes``) back.  Same-locality invocations skip the
        wire but still pay the action overhead unless the caller uses
        :meth:`Locality.async_` directly — that asymmetry *is* the paper's
        Fig. 8 communication optimization.
        """
        fn = self.actions.lookup(action)
        promise = Promise(name=f"{action}@{dst}")
        local = src == dst
        dest_loc = self.localities[dst]

        def on_request(_msg: Message) -> None:
            task_future = dest_loc.async_(fn, *args, cost=cost, name=action, kind=kind)

            def send_back(f: Future) -> None:
                def on_reply(_m: Message) -> None:
                    if f.has_exception():
                        promise.set_exception(f._exception)  # noqa: SLF001
                    else:
                        promise.set_value(f._value)  # noqa: SLF001

                self.network.send(
                    self.engine,
                    Message(dst, src, None, result_size_bytes, tag=f"{action}:reply"),
                    on_reply,
                    local=local,
                )

            task_future.add_done_callback(send_back)

        self.network.send(
            self.engine,
            Message(src, dst, args, size_bytes, tag=action),
            on_request,
            local=local,
        )
        return promise.get_future()

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
