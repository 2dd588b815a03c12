"""Declared effect sets: the footprint a task touches.

A *resource* is one piece of simulation state identified by
``(subgrid, field, space)`` — e.g. the interior of arena slot 12's
field chunk, as :func:`repro.analysis.shmrace.row_effects` names the
step program's effect rows.  A task's :class:`EffectSet` partitions its
footprint into

* **reads** — the task observes the resource,
* **writes** — the task replaces the resource (exclusive access required),
* **accums** — the task accumulates into the resource with a commutative
  reduction (Kokkos atomics / ``+=`` of M2L contributions): accumulations
  commute with each other but conflict with plain reads and writes.

Two effect sets *conflict* when they touch overlapping resources and at
least one side needs exclusivity the other violates (write/write,
write/read, write/accum, read/accum).  Conflicting tasks are only legal
when a happens-before edge orders them — that check is
:mod:`repro.analysis.race`'s job; this module only describes footprints.

Effects travel with a task (``effects=`` on the locality's ``async_*``)
or attach to a callable with :func:`declare_effects`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, FrozenSet, Iterable, List, Optional, Tuple

#: Wildcard marker matching any subgrid / field / space.
ANY = "*"


@dataclass(frozen=True)
class Resource:
    """One addressable piece of state: ``(subgrid, field, space)``.

    ``subgrid`` is whatever identifies the data owner (an int sub-grid id,
    a :class:`~repro.octree.node.NodeKey`, a label...); ``field`` names the
    array within it; ``space`` the memory space holding it.  Any component
    may be the wildcard :data:`ANY`, which overlaps everything.
    """

    subgrid: Any = ANY
    field: str = ANY
    space: str = "Host"

    def overlaps(self, other: "Resource") -> bool:
        """True when the two resources can alias."""
        return (
            (self.subgrid == ANY or other.subgrid == ANY or self.subgrid == other.subgrid)
            and (self.field == ANY or other.field == ANY or self.field == other.field)
            and (self.space == ANY or other.space == ANY or self.space == other.space)
        )

    @property
    def is_concrete(self) -> bool:
        return ANY not in (self.subgrid, self.field, self.space)

    def __str__(self) -> str:
        return f"{self.subgrid}.{self.field}@{self.space}"


def _as_resources(items: Optional[Iterable]) -> FrozenSet[Resource]:
    out = set()
    for item in items or ():
        if isinstance(item, Resource):
            out.add(item)
        elif isinstance(item, tuple):
            out.add(Resource(*item))
        else:
            raise TypeError(f"not a resource: {item!r}")
    return frozenset(out)


#: One conflicting access pair: (my resource, my mode, their resource, their mode).
Conflict = Tuple[Resource, str, Resource, str]

_READ, _WRITE, _ACCUM = "read", "write", "accum"
#: Access-mode pairs that commute (everything else conflicts on overlap).
_COMMUTING = {(_READ, _READ), (_ACCUM, _ACCUM)}


@dataclass(frozen=True)
class EffectSet:
    """The declared footprint of one task or kernel."""

    reads: FrozenSet[Resource] = field(default_factory=frozenset)
    writes: FrozenSet[Resource] = field(default_factory=frozenset)
    accums: FrozenSet[Resource] = field(default_factory=frozenset)

    @classmethod
    def make(
        cls,
        reads: Optional[Iterable] = None,
        writes: Optional[Iterable] = None,
        accums: Optional[Iterable] = None,
    ) -> "EffectSet":
        """Build from iterables of :class:`Resource` or plain tuples."""
        return cls(_as_resources(reads), _as_resources(writes), _as_resources(accums))

    def accesses(self) -> List[Tuple[Resource, str]]:
        """Every (resource, mode) pair this set declares."""
        return (
            [(r, _READ) for r in self.reads]
            + [(r, _WRITE) for r in self.writes]
            + [(r, _ACCUM) for r in self.accums]
        )

    def conflicts_with(self, other: "EffectSet") -> List[Conflict]:
        """All overlapping, non-commuting access pairs between the two sets."""
        out: List[Conflict] = []
        for mine, my_mode in self.accesses():
            for theirs, their_mode in other.accesses():
                if (my_mode, their_mode) in _COMMUTING:
                    continue
                if mine.overlaps(theirs):
                    out.append((mine, my_mode, theirs, their_mode))
        return out

    def is_empty(self) -> bool:
        return not (self.reads or self.writes or self.accums)


_EFFECTS_ATTR = "__effects__"


def declare_effects(
    reads: Optional[Iterable] = None,
    writes: Optional[Iterable] = None,
    accums: Optional[Iterable] = None,
) -> Callable[[Callable], Callable]:
    """Decorator attaching an :class:`EffectSet` to a callable.

    The callable is returned unchanged (no wrapper, no call overhead); the
    effect set rides along as ``fn.__effects__`` for schedulers and the
    race detector to pick up.
    """
    effects = EffectSet.make(reads, writes, accums)

    def attach(fn: Callable) -> Callable:
        setattr(fn, _EFFECTS_ATTR, effects)
        return fn

    return attach
