"""Race detection over declared effect sets on the DES runtime.

:class:`RaceDetector` is a *dynamic* observer for
:class:`repro.amt.scheduler.WorkerPool`.  It maintains a happens-before
relation over tasks as they execute on the virtual runtime and flags any
pair of tasks with conflicting effects that no dependency path orders.
:class:`repro.core.distributed.DistributedHydroDriver` installs a fresh
one on every step's runtime, each task carrying the effect rows its op
declares (:func:`repro.hydro.plan.op_effect_rows`).

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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.effects import _COMMUTING, EffectSet, Resource


class RaceError(RuntimeError):
    """Raised by a :class:`RaceDetector` in raise-on-finding mode."""


@dataclass(frozen=True)
class RaceFinding:
    """A pair of unordered tasks with conflicting effects."""

    task_a: str
    task_b: str
    resource_a: Resource
    mode_a: str
    resource_b: Resource
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
    events here.  Only tasks carrying a declared
    :class:`~repro.analysis.effects.EffectSet` participate in conflict
    checking; undeclared tasks still propagate causality.  Checked
    accesses are indexed by resource: concrete resources overlap iff
    equal, so a new access meets only its own bucket plus the wildcard
    accesses.
    """

    def __init__(self, raise_on_finding: bool = False) -> None:
        self.raise_on_finding = raise_on_finding
        self.findings: List[RaceFinding] = []
        self.tasks_seen = 0
        self.tasks_checked = 0
        self._checked: List[Tuple[int, str]] = []  # (own bit, name) per task
        #: Prior accesses ``(task index, resource, mode)``: per concrete
        #: resource, and the wildcard ones.
        self._exact: Dict[Resource, List[Tuple[int, Resource, str]]] = {}
        self._wild: List[Tuple[int, Resource, str]] = []
        self._next_bit = 0
        self._deps: Dict[int, Sequence[Any]] = {}  # task.id -> dep futures
        self._clock: Dict[int, int] = {}  # task.id -> ancestor clock
        self._bit: Dict[int, int] = {}  # task.id -> own bit
        self._stack: List[int] = []  # task.ids of nested payload execution

    def _check(
        self, name: str, effects: EffectSet, clock: int, bit: int
    ) -> List[RaceFinding]:
        """The first conflict of a new task with each prior task its clock
        does not order; the task's accesses join the index afterwards."""
        found: Dict[int, RaceFinding] = {}
        for res, mode in effects.accesses():
            priors = self._exact.get(res, []) if res.is_concrete else [
                access for bucket in self._exact.values() for access in bucket
            ]
            for idx, theirs, their_mode in priors + self._wild:
                prior_bit, prior_name = self._checked[idx]
                if (idx in found or prior_bit & clock
                        or (mode, their_mode) in _COMMUTING
                        or not res.overlaps(theirs)):
                    continue
                found[idx] = RaceFinding(
                    task_a=prior_name, task_b=name,
                    resource_a=theirs, mode_a=their_mode,
                    resource_b=res, mode_b=mode,
                )
        idx = len(self._checked)
        self._checked.append((bit, name))
        for res, mode in effects.accesses():
            bucket = self._exact.setdefault(res, []) if res.is_concrete \
                else self._wild
            bucket.append((idx, res, mode))
        return [found[i] for i in sorted(found)]

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
        bit = 1 << self._next_bit
        self._next_bit += 1
        self._bit[task.id] = bit
        self._clock[task.id] = clock
        effects: Optional[EffectSet] = getattr(task, "effects", None)
        if effects is not None and not effects.is_empty():
            self.tasks_checked += 1
            found = self._check(task.name, effects, clock, bit)
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
