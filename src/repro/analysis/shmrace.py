"""Dynamic shm race detection for the process backend.

The process backend (:mod:`repro.hydro.process_backend`) has no futures:
forked workers touch :class:`~repro.amt.shm.ShmArena` pages directly, and
the ordering primitives are the end of a
:meth:`repro.amt.parallel.ParallelEngine.round` and, inside a round that
applies ghosts and later writes interiors, the ``ghosts`` → ``go``
handshake.
This module checks that world against the effect rows every program op
declares (:func:`repro.hydro.plan.op_effect_rows`):

* each worker appends
  ``(epoch, mode, segment, slot_lo, slot_hi, region, position)``
  events to its own block of a shared-memory event log
  (:class:`ShmEventLog` / :class:`ShmEventWriter`) — the *epoch* is the
  worker's round counter, which advances identically on every rank
  because rounds deliver the same command sequence everywhere, and the
  *position* says where in the round the access happened relative to the
  handshake (:func:`handshake_positions`);
* after each round the parent's :class:`ShmRaceDetector` replays the
  logs with :func:`concurrent_conflicts`, which the static op-program
  proof (:func:`repro.analysis.planverify.verify_op_program`) uses too.
  Events in **different** epochs are ordered by the barrier between
  them; events in the **same** epoch on **different** ranks are
  concurrent unless the handshake orders them — a before-note access on
  one rank precedes every after-wait access on any rank.  Two concurrent
  events race when their rows conflict
  (:func:`repro.analysis.effects.conflict_mask`).

A full log drops rows instead of blocking; the detector reports any
growth of that count as a finding, since a truncated log cannot prove
the round clean.

Findings are :class:`~repro.analysis.race.RaceFinding` records with
``kind="shm-race"`` and each side's row as its resource.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.amt.shm import ShmArena
from repro.analysis.effects import (
    MODE_NAMES, MODE_WRITE, REGION_GHOST, REGION_INTERIOR, SEG_FIELDS,
    conflict_mask, describe_row, touches,
)
from repro.analysis.race import RaceError, RaceFinding

#: Handshake positions (event word 6): before the rank notes ``ghosts``,
#: between the note and its wait for ``go``, after the wait.
BEFORE_NOTE, AFTER_NOTE, AFTER_WAIT = 0, 1, 2

#: Event-log wire format: per-rank header words, words per event row.
_HEADER = 2  # [count, dropped]
_WORDS = 7   # (epoch, mode, segment, slot_lo, slot_hi, region, position)


class ShmRaceError(RaceError):
    """Raised by a :class:`ShmRaceDetector` in raise-on-finding mode."""


def handshake_positions(rows: Sequence[np.ndarray]) -> List[int]:
    """The handshake position of each op of a round, from the ops'
    effect rows (``rows[i]``: op ``i``'s rows over every rank, so all
    ranks take one decision).

    A round that writes ghost bands (a ghost apply) and later writes
    interiors notes ``ghosts`` after the apply and waits for ``go``
    before the first op that writes interiors, which the other ranks'
    applies read as donors.  Every other round has no handshake, so all
    of its ops are :data:`BEFORE_NOTE`.
    """
    ghost = [touches(r, MODE_WRITE, SEG_FIELDS, REGION_GHOST) for r in rows]
    interior = [touches(r, MODE_WRITE, SEG_FIELDS, REGION_INTERIOR) for r in rows]
    first = ghost.index(True) if True in ghost else len(rows)
    wait = next((i for i in range(first + 1, len(rows)) if interior[i]), None)
    if wait is None:
        return [BEFORE_NOTE] * len(rows)
    return [BEFORE_NOTE if i <= first else AFTER_NOTE if i < wait else AFTER_WAIT
            for i in range(len(rows))]


def concurrent_conflicts(
    rank_a: int,
    ea: np.ndarray,
    rank_b: int,
    eb: np.ndarray,
    seen: set,
) -> List[RaceFinding]:
    """Conflicting same-epoch event pairs of two ranks that no ordering
    edge covers.

    ``ea``/``eb`` are ``(k, 7)`` event arrays.  Pairs are skipped when
    their epochs differ (a barrier orders them), their rows do not
    conflict (:func:`~repro.analysis.effects.conflict_mask`), or the
    handshake orders them (one side before its note, the other after its
    wait).  ``seen`` dedupes findings across calls and rank pairs.
    """
    out: List[RaceFinding] = []
    if not len(ea) or not len(eb):
        return out
    handshake = (
        ((ea[:, 6:7] == BEFORE_NOTE) & (eb[:, 6] == AFTER_WAIT))
        | ((ea[:, 6:7] == AFTER_WAIT) & (eb[:, 6] == BEFORE_NOTE))
    )
    ia, ib = np.nonzero(
        (ea[:, 0:1] == eb[:, 0]) & ~handshake
        & conflict_mask(ea[:, 1:6], eb[:, 1:6])
    )
    for i, j in zip(ia.tolist(), ib.tolist()):
        epoch = int(ea[i, 0])
        key = (rank_a, rank_b, epoch, int(ea[i, 2]),
               int(ea[i, 1]), int(eb[j, 1]),
               max(int(ea[i, 3]), int(eb[j, 3])),
               min(int(ea[i, 4]), int(eb[j, 4])),
               int(ea[i, 5]), int(eb[j, 5]))
        if key in seen:
            continue
        seen.add(key)
        out.append(RaceFinding(
            task_a=f"rank{rank_a}@epoch{epoch}",
            task_b=f"rank{rank_b}@epoch{epoch}",
            resource_a=describe_row(ea[i, 1:6]),
            mode_a=MODE_NAMES[int(ea[i, 1])],
            resource_b=describe_row(eb[j, 1:6]),
            mode_b=MODE_NAMES[int(eb[j, 1])],
            kind="shm-race",
        ))
    return out


class ShmEventLog:
    """Per-rank access-event blocks in one shared-memory segment.

    The parent creates the log before forking; each worker's inherited
    mapping gives it lock-free append access to its own block (no other
    rank ever writes it).  Layout per rank: ``[count, dropped]`` header
    followed by ``capacity`` rows of :data:`_WORDS` int64 words.
    """

    def __init__(self, nranks: int, capacity: int = 4096) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.nranks = nranks
        self.capacity = capacity
        per = _HEADER + capacity * _WORDS
        self.arena = ShmArena(nranks * per * 8, label="shm-race-log")
        self._table = self.arena.ndarray((nranks, per), dtype=np.int64)
        self._table[:, :_HEADER] = 0

    def writer(self, rank: int) -> "ShmEventWriter":
        """The append handle for one rank (used child-side after fork)."""
        return ShmEventWriter(self._table[rank], self.capacity)

    def events(self, rank: int) -> np.ndarray:
        """A copy of rank's logged rows: ``(count, 7)`` int64."""
        count = min(int(self._table[rank, 0]), self.capacity)
        block = self._table[rank, _HEADER : _HEADER + count * _WORDS]
        return block.reshape(count, _WORDS).copy()

    def dropped(self, rank: int) -> int:
        """Events lost to a full block since creation (cumulative)."""
        return int(self._table[rank, 1])

    def reset(self) -> None:
        """Clear every rank's cursor (call only at a barrier)."""
        self._table[:, 0] = 0

    def unlink(self) -> None:
        self.arena.unlink()

    def __enter__(self) -> "ShmEventLog":
        return self

    def __exit__(self, *exc) -> None:  # noqa: ANN002
        self.unlink()


class ShmEventWriter:
    """One rank's append handle into the shared event log."""

    def __init__(self, block: np.ndarray, capacity: int) -> None:
        self._block = block
        self.capacity = capacity
        self._rows = block[_HEADER:].reshape(capacity, _WORDS)

    def log(self, epoch: int, rows: np.ndarray, position: int = BEFORE_NOTE) -> None:
        """Append precomputed ``(mode, segment, lo, hi, region)`` rows,
        stamped with ``epoch`` and their handshake ``position``.  Overflow
        is counted, never blocks."""
        n = len(rows)
        if not n:
            return
        count = int(self._block[0])
        take = min(n, self.capacity - count)
        if take:
            dst = self._rows[count : count + take]
            dst[:, 0] = epoch
            dst[:, 1:6] = rows[:take]
            dst[:, 6] = position
            self._block[0] = count + take
        if take < n:
            self._block[1] += n - take


class ShmRaceDetector:
    """Replays the event log at each barrier and flags concurrent conflicts.

    ``scan()`` is called parent-side while every worker is parked at the
    barrier (the :attr:`repro.amt.parallel.ParallelEngine.round_observer`
    hook), so reading and resetting the log is race-free by construction.
    """

    def __init__(self, log: ShmEventLog, raise_on_finding: bool = True) -> None:
        self.log = log
        self.raise_on_finding = raise_on_finding
        self.findings: List[RaceFinding] = []
        self.events_seen = 0
        self.scans = 0
        self._dropped_reported = 0

    @property
    def dropped(self) -> int:
        return sum(self.log.dropped(r) for r in range(self.log.nranks))

    def scan(self) -> List[RaceFinding]:
        """Drain the log, check same-epoch cross-rank pairs, reset."""
        per_rank = [self.log.events(r) for r in range(self.log.nranks)]
        self.log.reset()
        self.scans += 1
        self.events_seen += sum(len(e) for e in per_rank)
        new: List[RaceFinding] = []
        dropped = self.dropped
        if dropped > self._dropped_reported:
            log = f"event-log[0:{self.log.nranks}) rows"
            new.append(RaceFinding(
                task_a="workers", task_b="race detector",
                resource_a=log, mode_a="write", resource_b=log, mode_b="read",
                kind="shm-log-overflow",
                reason=f"{dropped - self._dropped_reported} event(s) dropped: "
                       f"the round cannot be proved race-free",
            ))
            self._dropped_reported = dropped
        seen: set = set()
        for a in range(len(per_rank)):
            for b in range(a + 1, len(per_rank)):
                new.extend(
                    concurrent_conflicts(a, per_rank[a], b, per_rank[b], seen)
                )
        self.findings.extend(new)
        if new and self.raise_on_finding:
            raise ShmRaceError(
                f"{len(new)} shm race finding(s); first: {new[0]}"
            )
        return new
