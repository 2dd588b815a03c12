"""Race detection over declared effect rows on the DES runtime.

:class:`RaceDetector` is a *dynamic* observer for
:class:`repro.amt.scheduler.WorkerPool`.  It maintains a happens-before
relation over tasks as they execute on the virtual runtime and flags any
pair of tasks with conflicting effects that no dependency path orders.
:class:`repro.core.distributed.DistributedHydroDriver` installs a fresh
one on every step's runtime, each task carrying the effect rows its op
declares (:func:`repro.hydro.plan.op_effect_rows`); conflicts are decided
by :func:`repro.analysis.effects.conflict_mask`, the predicate the shm
replay and the static op-program proof use too.

Happens-before is tracked as a vector clock compressed into Python's
arbitrary-precision integers: task *i* owns bit *i*; a task's clock is the
OR of ``clock | bit`` over all its ancestors.  Ordering tests and clock
merges are single integer operations.  Clocks propagate through the future
layer (``Future._origin``): a task future carries its task's clock, and
``then`` / ``when_all`` combine origins, so ``hpx::dataflow``
chains and barrier futures transport causality exactly.

The detector flags *schedules*, not *interleavings*: a conflicting pair
with no ordering edge is reported even when this particular virtual-time
run happened to serialise it — the next run, or the real machine, may not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.effects import MODE_NAMES, conflict_mask, describe_row


class RaceError(RuntimeError):
    """Raised by a :class:`RaceDetector` in raise-on-finding mode."""


@dataclass(frozen=True)
class RaceFinding:
    """A pair of unordered tasks with conflicting effects; each side's
    resource is a row description such as ``fields[0:4) interior``."""

    task_a: str
    task_b: str
    resource_a: str
    mode_a: str
    resource_b: str
    mode_b: str
    kind: str = "race"  # "race" | "shm-race" | "shm-log-overflow"
    reason: str = "no happens-before edge"

    def __str__(self) -> str:
        return (
            f"{self.kind}: {self.task_a} [{self.mode_a} {self.resource_a}] vs "
            f"{self.task_b} [{self.mode_b} {self.resource_b}] — {self.reason}"
        )


class RaceDetector:
    """Dynamic happens-before race detector for the AMT worker pools.

    Install with :meth:`repro.amt.locality.Runtime.install_observer` (or by
    assigning ``pool.observer``); the scheduler then reports task lifecycle
    events here.  Only tasks carrying effect rows participate in conflict
    checking; undeclared tasks still propagate causality.  The rows of
    every checked task are kept with the task's clock bit: a new task's
    rows meet all of them in one
    :func:`~repro.analysis.effects.conflict_mask`, and the conflicting
    tasks its clock does not order are its races.
    """

    def __init__(self, raise_on_finding: bool = False) -> None:
        self.raise_on_finding = raise_on_finding
        self.findings: List[RaceFinding] = []
        self.tasks_seen = 0
        self.tasks_checked = 0
        self._names: Dict[int, str] = {}  # clock bit position -> task name
        #: Prior checked tasks' rows, and the clock bit position of each.
        self._rows = np.empty((0, 5), dtype=np.int64)
        self._owner = np.empty(0, dtype=np.intp)
        self._next_bit = 0
        self._deps: Dict[int, Sequence[Any]] = {}  # task.id -> dep futures
        self._clock: Dict[int, int] = {}  # task.id -> ancestor clock
        self._bit: Dict[int, int] = {}  # task.id -> own bit
        self._stack: List[int] = []  # task.ids of nested payload execution

    def _check(
        self, name: str, rows: np.ndarray, clock: int, position: int
    ) -> List[RaceFinding]:
        """The first conflict of a new task with each prior task its clock
        does not order; the task's rows join the priors afterwards.
        ``position`` is the task's clock bit, which keys its rows."""
        found: List[RaceFinding] = []
        pi, ri = np.nonzero(conflict_mask(self._rows, rows))
        # Rows are stored in task order, so np.unique's first index of
        # each task is its first conflicting row pair.
        tasks, first = np.unique(self._owner[pi], return_index=True)
        for task, f in zip(tasks.tolist(), first.tolist()):
            if clock >> task & 1:
                continue  # an ancestor: ordered before this task
            theirs, mine = self._rows[pi[f]], rows[ri[f]]
            found.append(RaceFinding(
                task_a=self._names[task], task_b=name,
                resource_a=describe_row(theirs),
                mode_a=MODE_NAMES[int(theirs[0])],
                resource_b=describe_row(mine),
                mode_b=MODE_NAMES[int(mine[0])],
            ))
        self._names[position] = name
        self._rows = np.vstack([self._rows, rows])
        self._owner = np.concatenate(
            [self._owner, np.full(len(rows), position, dtype=np.intp)]
        )
        return found

    # -- WorkerPool observer protocol -------------------------------------
    def on_submit(self, task: Any, deps: Sequence[Any]) -> None:
        """A task entered the scheduler with explicit dependency futures."""
        self._deps.setdefault(task.id, list(deps))

    def on_start(self, task: Any) -> None:
        """The task was picked up: its deps are resolved — merge their
        clocks, assign its bit, and race-check its effects."""
        self.tasks_seen += 1
        clock = 0
        for dep in self._deps.pop(task.id, ()):
            clock |= getattr(dep, "_origin", 0)
        if self._stack:
            # Spawned from inside a running payload: fork edge from parent.
            parent = self._stack[-1]
            clock |= self._clock[parent] | self._bit[parent]
        position = self._next_bit
        self._next_bit += 1
        self._bit[task.id] = 1 << position
        self._clock[task.id] = clock
        rows: Optional[np.ndarray] = getattr(task, "effects", None)
        if rows is not None and len(rows):
            self.tasks_checked += 1
            found = self._check(task.name, rows, clock, position)
            if found:
                self.findings.extend(found)
                if self.raise_on_finding:
                    raise RaceError(str(found[0]))
        self._stack.append(task.id)

    def on_executed(self, task: Any) -> None:
        """The task's payload returned (still occupying its worker)."""
        if self._stack and self._stack[-1] == task.id:
            self._stack.pop()

    def on_finish(self, task: Any) -> None:
        """The task's virtual cost elapsed; stamp its future's origin
        *before* the future resolves so dependents inherit the clock."""
        clock = self._clock.get(task.id, 0) | self._bit.get(task.id, 0)
        task.future._origin = clock  # noqa: SLF001 - detector owns provenance
