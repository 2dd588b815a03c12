"""The effect vocabulary of the step program: rows, and one conflict mask.

Every op of the step program declares what it touches in the shared
arenas once, as ``(mode, segment, lo, hi, region)`` rows over leaf slots
(:func:`repro.hydro.plan.op_effect_rows`):

* **mode** — the op reads, writes (exclusive access required) or
  accumulates into the slots with a commutative reduction;
* **segment** — which arena the slot range ``[lo, hi)`` indexes;
* **region** — which part of each leaf chunk is touched: its interior,
  its ghost bands, or all of it.

:func:`conflict_mask` is the one conflict predicate: two rows conflict
when they touch the same segment, their slot ranges intersect, their
regions can alias and their modes do not commute (only read/read and
accum/accum do).  The three race checks add only their own ordering on
top: epoch and handshake position for the shm replay
(:mod:`repro.analysis.shmrace`) and the static op-program proof
(:mod:`repro.analysis.planverify`), the vector clock for the DES
detector (:mod:`repro.analysis.race`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: Access-mode codes (row word 0).
MODE_READ, MODE_WRITE, MODE_ACCUM = 0, 1, 2
MODE_NAMES = {MODE_READ: "read", MODE_WRITE: "write", MODE_ACCUM: "accum"}

#: Segment codes (row word 1): which arena the slot range indexes.
SEG_FIELDS, SEG_ACCEL, SEG_FLUX = 0, 1, 2
SEG_NAMES = {SEG_FIELDS: "fields", SEG_ACCEL: "accel", SEG_FLUX: "flux"}

#: Region codes (row word 4): which part of each leaf chunk is touched.
#: ``ALL`` aliases both; ``INTERIOR`` and ``GHOST`` are disjoint — the
#: refinement that lets a donor's interior read coexist with the owner's
#: ghost write inside the same chunk during a ghost round.
REGION_ALL, REGION_INTERIOR, REGION_GHOST = 0, 1, 2
REGION_NAMES = {REGION_ALL: "all", REGION_INTERIOR: "interior",
                REGION_GHOST: "ghost"}


def conflict_mask(ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """``(len(ra), len(rb))`` bool: row ``i`` of ``ra`` conflicts with
    row ``j`` of ``rb`` — same segment, intersecting slot ranges,
    aliasing regions, non-commuting modes."""
    ma, ga = ra[:, 0:1], ra[:, 4:5]
    mb, gb = rb[:, 0], rb[:, 4]
    return (
        (ra[:, 1:2] == rb[:, 1])
        & (ra[:, 2:3] < rb[:, 3]) & (rb[:, 2] < ra[:, 3:4])
        & ((ga == REGION_ALL) | (gb == REGION_ALL) | (ga == gb))
        & ~((ma == mb) & (ma != MODE_WRITE))
    )


def touches(rows: np.ndarray, mode: int, segment: int, region: int) -> bool:
    """Whether any of ``rows`` has ``mode`` on ``segment`` in a region
    that aliases ``region``."""
    hit = (rows[:, 0] == mode) & (rows[:, 1] == segment)
    return bool(np.any(hit & ((rows[:, 4] == region) | (rows[:, 4] == REGION_ALL))))


def describe_row(row: Sequence[int]) -> str:
    """A row's footprint as text, e.g. ``fields[0:4) interior``."""
    _mode, seg, lo, hi, region = (int(w) for w in row)
    return f"{SEG_NAMES[seg]}[{lo}:{hi}) {REGION_NAMES[region]}"


def slot_range_rows(
    lo: int, hi: int, mode: int, segment: int, region: int = REGION_ALL
) -> np.ndarray:
    """One descriptor row for a contiguous leaf-slot range ``[lo, hi)``."""
    return np.array([[mode, segment, lo, hi, region]], dtype=np.int64)


#: Indices per pass of the index-array classifiers: bounds their
#: temporaries to well under a MB whatever the plan size.
CHUNK = 1 << 14


def index_chunks(arrays: Sequence[np.ndarray]):
    """Fixed-size flat pieces of index arrays, without concatenating them."""
    for a in arrays:
        flat = np.asarray(a).reshape(-1)
        for lo in range(0, flat.size, CHUNK):
            yield flat[lo : lo + CHUNK]


def slot_regions(
    idx: np.ndarray, n: int, ghost: int, nfields: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Leaf slot and region code (interior or ghost band) of flat
    field-arena element indices into ``(nfields, M, M, M)`` chunks,
    ``M = n + 2*ghost``."""
    m = n + 2 * ghost
    cube = np.full((m, m, m), REGION_GHOST, dtype=np.uint8)
    inner = slice(ghost, ghost + n)
    cube[inner, inner, inner] = REGION_INTERIOR
    table = np.tile(cube.ravel(), nfields)
    slot, local = np.divmod(idx, table.size)
    return slot, table[local]


def field_access_rows(
    indices: Sequence[np.ndarray],
    mode: int,
    n: int,
    ghost: int,
    nfields: int,
) -> np.ndarray:
    """Descriptor rows covering flat field-arena element indices.

    Classifies every index into its leaf slot and region
    (:func:`slot_regions`, one :func:`index_chunks` piece at a time), then
    compresses consecutive same-region slots into ranges.  Run over a
    bundle's live gather/scatter arrays, so an injected index pointing
    into a foreign slot shows up as a foreign-slot row.
    """
    # The (slot, region) tags present, ascending: one counting pass a piece.
    tagged = set()
    for idx in index_chunks(indices):
        slot, region = slot_regions(idx, n, ghost, nfields)
        tagged.update(np.flatnonzero(np.bincount(slot * 4 + region)).tolist())
    rows: List[Tuple[int, int, int, int, int]] = []
    for t in sorted(tagged):
        s, r = t // 4, t % 4
        if rows and rows[-1][4] == r and rows[-1][3] == s:
            rows[-1] = (mode, SEG_FIELDS, rows[-1][2], s + 1, r)
        else:
            rows.append((mode, SEG_FIELDS, s, s + 1, r))
    return np.array(rows, dtype=np.int64).reshape(-1, 5)
