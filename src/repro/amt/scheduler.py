"""Worker-pool task scheduler over the discrete-event engine.

Models an HPX thread pool: ``n_workers`` OS-thread analogues pull tasks from
a shared ready queue.  A task occupies a worker for its virtual cost; the
payload (real Python code) executes at task start.  The pool records
utilisation and starvation statistics — the quantities behind the paper's
Fig. 9 (core starvation during distributed tree traversals).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.amt.engine import Engine
from repro.amt.future import Future
from repro.amt.task import Task, TaskState


class WorkerPool:
    """A fixed pool of virtual workers fed by a FIFO ready queue."""

    def __init__(self, engine: Engine, n_workers: int, name: str = "pool") -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.engine = engine
        self.n_workers = n_workers
        self.name = name
        #: Optional lifecycle observer (e.g. repro.analysis.race.RaceDetector).
        #: Protocol: on_submit(task, deps), on_start(task), on_executed(task),
        #: on_finish(task) — on_finish fires before the task future resolves
        #: so dependents can inherit provenance.
        self.observer = None
        self._ready: Deque[Task] = deque()
        self._idle_workers: List[int] = list(range(n_workers))
        #: Tasks submitted with unready dependencies, still waiting — the
        #: deadlock watchdog reads this to name what a quiesced pool was
        #: blocked on.
        self._waiting: Dict[int, Tuple[Task, List[Future]]] = {}
        # Statistics.
        self.tasks_completed = 0
        self.tasks_failed = 0
        self.busy_time = 0.0
        self.kind_counts: Dict[str, int] = {}
        self.kind_time: Dict[str, float] = {}
        self._started_at = engine.now
        self._starvation_samples: List[Tuple[float, int]] = []

    # -- submission -------------------------------------------------------
    def submit(self, task: Task) -> Future:
        """Queue a task whose dependencies are satisfied."""
        if self.observer is not None:
            self.observer.on_submit(task, ())
        task.state = TaskState.READY
        task.submitted_at = self.engine.now
        self._ready.append(task)
        self._dispatch()
        return task.future

    def submit_sharded(
        self,
        deps: Iterable[Future],
        fn: Optional[Callable[..., Any]],
        cost: float = 0.0,
        shards: int = 1,
        name: str = "",
        kind: str = "task",
        effects: Any = None,
    ) -> Future:
        """Split one unit of work across up to ``shards`` workers.

        The paper's work-splitting mechanism (SVII-C) at the scheduler
        level: the payload runs once (on the first shard), but the virtual
        cost is divided over ``shards`` independent tasks the pool can run
        concurrently — a kernel that would occupy one worker for ``cost``
        seconds instead occupies ``shards`` workers for ``cost/shards``
        each, shrinking the critical path when cores would otherwise
        starve.  The returned future resolves when every shard finishes.
        ``effects`` (the payload's declared footprint) ride on the first
        shard, the one that runs it.
        """
        if shards < 1:
            raise ValueError("shards must be >= 1")
        deps = list(deps)
        if shards == 1:
            task = Task(fn, cost=cost, name=name, kind=kind, effects=effects)
            return self.submit_after(deps, task) if deps else self.submit(task)
        from repro.amt.future import when_all

        per = cost / shards
        parts = []
        for i in range(shards):
            task = Task(
                fn if i == 0 else None,
                cost=per,
                name=f"{name}#{i}" if name else "",
                kind=kind,
                effects=effects if i == 0 else None,
            )
            parts.append(self.submit_after(deps, task) if deps else self.submit(task))
        return when_all(parts)

    def submit_after(self, deps: Iterable[Future], task: Task) -> Future:
        """Queue ``task`` once every future in ``deps`` is ready.

        Dependency failures propagate to the task's future without running
        the payload.
        """
        deps = list(deps)
        if self.observer is not None:
            self.observer.on_submit(task, deps)
        if not deps:
            return self.submit(task)
        remaining = [len(deps)]
        self._waiting[task.id] = (task, deps)

        def on_done(f: Future) -> None:
            if f.has_exception():
                if not task.future.is_ready():
                    task.state = TaskState.FAILED
                    self._waiting.pop(task.id, None)
                    task.future._set_exception(f._exception)  # noqa: SLF001
                return
            remaining[0] -= 1
            if remaining[0] == 0 and not task.future.is_ready():
                self._waiting.pop(task.id, None)
                self.submit(task)

        for f in deps:
            f.add_done_callback(on_done)
        return task.future

    # -- dispatch ---------------------------------------------------------
    def _dispatch(self) -> None:
        while self._ready and self._idle_workers:
            task = self._ready.popleft()
            if task.future.is_ready():  # cancelled by a failed dependency
                continue
            worker = self._idle_workers.pop()
            self._start(task, worker)

    def _start(self, task: Task, worker: int) -> None:
        task.state = TaskState.RUNNING
        task.worker = worker
        task.started_at = self.engine.now
        observer = self.observer
        if observer is not None:
            observer.on_start(task)
        try:
            result = task.execute()
            failed: Optional[BaseException] = None
        except BaseException as exc:  # noqa: BLE001 - transported via future
            result, failed = None, exc
        finally:
            if observer is not None:
                observer.on_executed(task)
        cost = task.resolved_cost()

        def finish() -> None:
            task.finished_at = self.engine.now
            if observer is not None:
                observer.on_finish(task)
            self.busy_time += cost
            self.kind_counts[task.kind] = self.kind_counts.get(task.kind, 0) + 1
            self.kind_time[task.kind] = self.kind_time.get(task.kind, 0.0) + cost
            self._idle_workers.append(worker)
            if failed is None:
                task.state = TaskState.DONE
                self.tasks_completed += 1
                task.future._set_value(result)  # noqa: SLF001
            else:
                task.state = TaskState.FAILED
                self.tasks_failed += 1
                task.future._set_exception(failed)  # noqa: SLF001
            self._record_starvation()
            self._dispatch()

        self.engine.post(cost, finish)

    def _record_starvation(self) -> None:
        # Idle workers with an empty queue == starved cores at this instant.
        starved = len(self._idle_workers) - len(self._ready)
        if starved > 0:
            self._starvation_samples.append((self.engine.now, starved))

    def waiting_tasks(self) -> List[Tuple[Task, List[Future]]]:
        """Tasks still blocked on dependencies, with their unready deps.

        Empty on a healthy quiesced pool; non-empty entries after the
        engine drains are the deadlock witnesses.
        """
        out = []
        for task, deps in self._waiting.values():
            unready = [f for f in deps if not f.is_ready()]
            if unready:
                out.append((task, unready))
        return out

    # -- statistics -------------------------------------------------------
    def utilization(self) -> float:
        """Mean fraction of worker-time spent busy since construction."""
        elapsed = self.engine.now - self._started_at
        if elapsed <= 0:
            return 0.0
        return self.busy_time / (elapsed * self.n_workers)

    def starvation_events(self) -> int:
        """Number of instants at which at least one core had no work."""
        return len(self._starvation_samples)
