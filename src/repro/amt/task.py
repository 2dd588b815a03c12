"""Task descriptors for the AMT scheduler.

A task couples a real Python callable with a *virtual cost* (seconds of
worker time in the simulated machine).  The callable runs exactly once, when
a worker picks the task up; its return value resolves the task's future when
the virtual cost has elapsed.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Optional, Tuple

from repro.amt.future import Future


class TaskState(enum.Enum):
    PENDING = "pending"  # dependencies not yet satisfied
    READY = "ready"  # in a scheduler queue
    RUNNING = "running"  # assigned to a worker
    DONE = "done"
    FAILED = "failed"


_task_ids = itertools.count()


class Task:
    """A unit of work with a virtual execution cost.

    Parameters
    ----------
    fn:
        The callable executed on the worker.  May be ``None`` for pure-cost
        placeholder tasks used by the performance simulator.
    cost:
        Virtual seconds of worker occupancy.  Either a float or a zero-arg
        callable evaluated when the task starts (letting cost models inspect
        simulation state at execution time).
    name / kind:
        Diagnostics; ``kind`` feeds profiling counters (e.g. "hydro.flux",
        "fmm.m2l").
    effects:
        Optional declared footprint, ``(k, 5)`` effect rows
        (:mod:`repro.analysis.effects`), consumed by an installed
        scheduler observer (the race detector).
    """

    __slots__ = (
        "id",
        "fn",
        "args",
        "cost",
        "name",
        "kind",
        "effects",
        "state",
        "future",
        "submitted_at",
        "started_at",
        "finished_at",
        "worker",
    )

    def __init__(
        self,
        fn: Optional[Callable[..., Any]],
        args: Tuple[Any, ...] = (),
        cost: Any = 0.0,
        name: str = "",
        kind: str = "task",
        effects: Any = None,
    ) -> None:
        self.id = next(_task_ids)
        self.fn = fn
        self.args = args
        self.cost = cost
        self.name = name or f"task-{self.id}"
        self.kind = kind
        self.effects = effects
        self.state = TaskState.PENDING
        self.future = Future(name=self.name)
        self.submitted_at: Optional[float] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.worker: Optional[int] = None

    def resolved_cost(self) -> float:
        cost = self.cost() if callable(self.cost) else self.cost
        if cost < 0:
            raise ValueError(f"task {self.name!r} has negative cost {cost}")
        return float(cost)

    def execute(self) -> Any:
        """Run the payload; exceptions are captured by the scheduler."""
        if self.fn is None:
            return None
        return self.fn(*self.args)

    def __repr__(self) -> str:
        return f"<Task {self.name!r} kind={self.kind} state={self.state.value}>"
