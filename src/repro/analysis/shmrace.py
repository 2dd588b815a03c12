"""Dynamic shm race detection for the process backend.

The vector-clock detector of :mod:`repro.analysis.race` watches the DES
world, where every access is a task with declared effects and causality
rides the future layer.  The process backend
(:mod:`repro.hydro.process_backend`) has neither: forked workers touch
:class:`~repro.amt.shm.ShmArena` pages directly, and the only ordering
primitive is the end of a :meth:`repro.amt.parallel.ParallelEngine.round`.
This module is the equivalent checker for that world:

* each worker appends
  ``(epoch, mode, segment, slot_lo, slot_hi, region, phase)``
  access events to its own block of a shared-memory event log
  (:class:`ShmEventLog` / :class:`ShmEventWriter`) — the *epoch* is the
  worker's round counter, which advances identically on every rank
  because rounds deliver the same command sequence everywhere;
* after each round the parent's :class:`ShmRaceDetector` replays the
  logs.  The happens-before relation is exactly the barrier structure:
  events in **different** epochs are ordered by the barrier between them,
  events in the **same** epoch on **different** ranks are concurrent —
  unless an explicitly sanctioned message-grained happens-before edge
  (a round's ``on_note`` note→route chain, declared as
  an ordered ``(phase, phase)`` pair) orders them.  Two
  concurrent events conflict when they touch the same segment, their leaf
  slot ranges intersect, their regions can alias, and their access modes
  do not commute under the PR 2 effect vocabulary
  (:data:`repro.analysis.effects._COMMUTING` — ``read``/``read`` and
  ``accum``/``accum`` commute, everything else conflicts).

Events are *descriptors*, not per-element traces: a worker precomputes a
handful of ``(mode, segment, slot_lo, slot_hi, region)`` rows per phase
from the live index arrays of its plan (see :func:`field_access_rows`),
so logging a phase is one bounded shm append — cheap enough to leave on
(overhead numbers in ``EXPERIMENTS.md``).  Region codes split each leaf
chunk into its interior and ghost bands, because the ghost exchange
legitimately has two ranks in the same chunk at once: the donor reading
the interior, the owner writing the ghost band.

Findings reuse :class:`~repro.analysis.race.RaceFinding` with
``kind="shm-race"`` and resources in the ``shm`` space, so both backends
report violations of the same correctness contract in the same shape.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.amt.shm import ShmArena
from repro.analysis.effects import _ACCUM, _COMMUTING, _READ, _WRITE, Resource
from repro.analysis.race import RaceError, RaceFinding

#: Access-mode codes (event word 1) -> PR 2 effect-vocabulary names.
MODE_READ, MODE_WRITE, MODE_ACCUM = 0, 1, 2
MODE_NAMES = {MODE_READ: _READ, MODE_WRITE: _WRITE, MODE_ACCUM: _ACCUM}

#: Segment codes (event word 2): which shm arena the slot range indexes.
SEG_FIELDS, SEG_ACCEL, SEG_FLUX = 0, 1, 2
SEG_NAMES = {SEG_FIELDS: "fields", SEG_ACCEL: "accel", SEG_FLUX: "flux"}

#: Region codes (event word 5): which part of each leaf chunk is touched.
#: ``ALL`` aliases both; ``INTERIOR`` and ``GHOST`` are disjoint — the
#: refinement that lets a donor's interior read coexist with the owner's
#: ghost write inside the same chunk during a ghost round.
REGION_ALL, REGION_INTERIOR, REGION_GHOST = 0, 1, 2
REGION_NAMES = {REGION_ALL: "all", REGION_INTERIOR: "interior",
                REGION_GHOST: "ghost"}

#: Event-log wire format: per-rank header words, words per event row.
_HEADER = 2  # [count, dropped]
_WORDS = 7   # (epoch, mode, segment, slot_lo, slot_hi, region, phase)

#: Default phase stamp: events ordered only by the ends of rounds.
PHASE_NONE = 0
#: Protocol phase stamps.  The process backend tags the events of every
#: op of a round (one epoch) with these so the detector can honour the
#: message-grained happens-before edges *within* an epoch (see
#: ``ordered_phases`` on :class:`ShmRaceDetector`).
PHASE_EXCHANGE = 1
PHASE_COMPUTE = 2
PHASE_UPDATE = 3


class ShmRaceError(RaceError):
    """Raised by a :class:`ShmRaceDetector` in raise-on-finding mode."""


def slot_range_rows(
    lo: int, hi: int, mode: int, segment: int, region: int = REGION_ALL
) -> np.ndarray:
    """One descriptor row for a contiguous leaf-slot range ``[lo, hi)``."""
    return np.array([[mode, segment, lo, hi, region]], dtype=np.int64)


def field_access_rows(
    indices: Sequence[np.ndarray],
    mode: int,
    n: int,
    ghost: int,
    nfields: int,
) -> np.ndarray:
    """Descriptor rows covering flat field-arena element indices.

    Classifies every index into its leaf slot and region (interior vs
    ghost band of the ``(nfields, M, M, M)`` chunk, ``M = n + 2*ghost``),
    then compresses consecutive same-region slots into ranges.  Run once
    at plan time over a bundle's live gather/scatter arrays — the rows,
    not the indices, are what the worker logs each epoch, so an injected
    index pointing into a foreign slot shows up as a foreign-slot event.
    """
    m = n + 2 * ghost
    cells = m**3
    chunk = nfields * cells
    flat = [np.asarray(a).ravel() for a in indices if np.asarray(a).size]
    if not flat:
        return np.empty((0, 5), dtype=np.int64)
    idx = np.concatenate(flat)
    slot = idx // chunk
    cell = idx % cells  # chunk is a multiple of cells: the field collapses
    i = cell // (m * m)
    j = (cell // m) % m
    k = cell % m
    interior = (
        (i >= ghost) & (i < ghost + n)
        & (j >= ghost) & (j < ghost + n)
        & (k >= ghost) & (k < ghost + n)
    )
    region = np.where(interior, REGION_INTERIOR, REGION_GHOST)
    tagged = np.unique(slot * 4 + region)
    rows: List[Tuple[int, int, int, int, int]] = []
    for t in tagged.tolist():
        s, r = t // 4, t % 4
        if rows and rows[-1][4] == r and rows[-1][3] == s:
            rows[-1] = (mode, SEG_FIELDS, rows[-1][2], s + 1, r)
        else:
            rows.append((mode, SEG_FIELDS, s, s + 1, r))
    return np.array(rows, dtype=np.int64)


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
        """A copy of rank's logged rows: ``(count, 6)`` int64."""
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

    def log(self, epoch: int, rows: np.ndarray, phase: int = PHASE_NONE) -> None:
        """Append precomputed ``(mode, segment, lo, hi, region)`` rows,
        stamped with ``epoch`` and the protocol ``phase`` (overlap rounds
        tag each schedule stage so the detector can apply message-grained
        ordering).  Overflow is counted, never blocks."""
        n = len(rows)
        if not n:
            return
        count = int(self._block[0])
        take = min(n, self.capacity - count)
        if take:
            dst = self._rows[count : count + take]
            dst[:, 0] = epoch
            dst[:, 1:6] = rows[:take]
            dst[:, 6] = phase
            self._block[0] = count + take
        if take < n:
            self._block[1] += n - take


class ShmRaceDetector:
    """Replays the event log at each barrier and flags concurrent conflicts.

    ``scan()`` is called parent-side while every worker is parked at the
    barrier (the :attr:`repro.amt.parallel.ParallelEngine.round_observer`
    hook), so reading and resetting the log is race-free by construction.
    Epochs partition happens-before exactly: the barrier after epoch ``e``
    orders all of ``e`` before all of ``e+1``, and nothing orders two
    same-epoch events on different ranks.
    """

    def __init__(
        self,
        log: ShmEventLog,
        raise_on_finding: bool = True,
        ordered_phases: Optional[set] = None,
    ) -> None:
        #: Sanctioned message-grained happens-before edges *within* an
        #: epoch: a set of ``(phase_a, phase_b)`` pairs meaning "events
        #: stamped ``phase_a`` are ordered before cross-rank events
        #: stamped ``phase_b`` by an explicit routed message" (the
        #: ``on_note`` note→route chain).  Pairs of events joined by
        #: such an edge are not concurrent and are skipped; the empty
        #: default reproduces pure barrier-epoch semantics.
        self.ordered_phases = frozenset(ordered_phases or ())
        self.log = log
        self.raise_on_finding = raise_on_finding
        self.findings: List[RaceFinding] = []
        self.events_seen = 0
        self.scans = 0

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
        seen = set()
        for a in range(len(per_rank)):
            for b in range(a + 1, len(per_rank)):
                new.extend(
                    self._check_pair(a, per_rank[a], b, per_rank[b], seen)
                )
        self.findings.extend(new)
        if new and self.raise_on_finding:
            raise ShmRaceError(
                f"{len(new)} shm race(s) detected; first: {new[0]}"
            )
        return new

    def _check_pair(
        self,
        rank_a: int,
        ea: np.ndarray,
        rank_b: int,
        eb: np.ndarray,
        seen: set,
    ) -> List[RaceFinding]:
        out: List[RaceFinding] = []
        if not len(ea) or not len(eb):
            return out
        same_epoch = ea[:, 0:1] == eb[:, 0]
        same_seg = ea[:, 2:3] == eb[:, 2]
        overlap = (ea[:, 3:4] < eb[:, 4]) & (eb[:, 3] < ea[:, 4:5])
        region_ok = (
            (ea[:, 5:6] == REGION_ALL)
            | (eb[:, 5] == REGION_ALL)
            | (ea[:, 5:6] == eb[:, 5])
        )
        ia, ib = np.nonzero(same_epoch & same_seg & overlap & region_ok)
        for i, j in zip(ia.tolist(), ib.tolist()):
            mode_a = MODE_NAMES[int(ea[i, 1])]
            mode_b = MODE_NAMES[int(eb[j, 1])]
            if (mode_a, mode_b) in _COMMUTING:
                continue
            phase_a, phase_b = int(ea[i, 6]), int(eb[j, 6])
            if (phase_a, phase_b) in self.ordered_phases \
                    or (phase_b, phase_a) in self.ordered_phases:
                # A sanctioned routed-message edge orders these two
                # phases across ranks within the epoch: not concurrent.
                continue
            epoch, seg = int(ea[i, 0]), int(ea[i, 2])
            lo = max(int(ea[i, 3]), int(eb[j, 3]))
            hi = min(int(ea[i, 4]), int(eb[j, 4]))
            key = (epoch, seg, mode_a, mode_b, lo, hi,
                   int(ea[i, 5]), int(eb[j, 5]))
            if key in seen:
                continue
            seen.add(key)
            out.append(
                RaceFinding(
                    task_a=f"rank{rank_a}@epoch{epoch}",
                    task_b=f"rank{rank_b}@epoch{epoch}",
                    resource_a=Resource(
                        subgrid=f"{SEG_NAMES[seg]}[{int(ea[i, 3])}:{int(ea[i, 4])})",
                        field=REGION_NAMES[int(ea[i, 5])],
                        space="shm",
                    ),
                    mode_a=mode_a,
                    resource_b=Resource(
                        subgrid=f"{SEG_NAMES[seg]}[{int(eb[j, 3])}:{int(eb[j, 4])})",
                        field=REGION_NAMES[int(eb[j, 5])],
                        space="shm",
                    ),
                    mode_b=mode_b,
                    kind="shm-race",
                )
            )
        return out
