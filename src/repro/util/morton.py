"""3-D Morton (Z-order) codes for octree addressing and SFC partitioning.

Octo-Tiger distributes its octree across localities along a space-filling
curve; we use the Morton curve.  Codes interleave the bits of the integer
grid coordinates ``(ix, iy, iz)`` of a node at a given refinement level, so
that sorting nodes by code yields spatially compact, contiguous partitions.

All functions accept and return plain Python ints (codes can exceed 64 bits
for deep trees, which Python ints handle natively).
"""

from __future__ import annotations

from typing import List, Tuple

# Offsets of the 26 face/edge/corner neighbours in 3-D.
NEIGHBOR_OFFSETS: Tuple[Tuple[int, int, int], ...] = tuple(
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
)

FACE_OFFSETS: Tuple[Tuple[int, int, int], ...] = (
    (-1, 0, 0),
    (1, 0, 0),
    (0, -1, 0),
    (0, 1, 0),
    (0, 0, -1),
    (0, 0, 1),
)


def _part1by2(n: int) -> int:
    """Spread the bits of ``n`` so each lands at position 3*i."""
    result = 0
    i = 0
    while n:
        result |= (n & 1) << (3 * i)
        n >>= 1
        i += 1
    return result


def _compact1by2(n: int) -> int:
    """Inverse of :func:`_part1by2`: collect every third bit."""
    result = 0
    i = 0
    while n:
        result |= (n & 1) << i
        n >>= 3
        i += 1
    return result


def morton_encode3(ix: int, iy: int, iz: int) -> int:
    """Interleave three non-negative integer coordinates into one code.

    Bit layout (LSB first): x0 y0 z0 x1 y1 z1 ...
    """
    if ix < 0 or iy < 0 or iz < 0:
        raise ValueError(f"Morton coordinates must be non-negative, got {(ix, iy, iz)}")
    return _part1by2(ix) | (_part1by2(iy) << 1) | (_part1by2(iz) << 2)


def morton_decode3(code: int) -> Tuple[int, int, int]:
    """Recover ``(ix, iy, iz)`` from a Morton code."""
    if code < 0:
        raise ValueError(f"Morton code must be non-negative, got {code}")
    return (_compact1by2(code), _compact1by2(code >> 1), _compact1by2(code >> 2))


def morton_parent(code: int) -> int:
    """Code of the parent octant (one level coarser)."""
    return code >> 3


def morton_children(code: int) -> List[int]:
    """Codes of the eight children (one level finer), in Z order."""
    base = code << 3
    return [base | o for o in range(8)]


def morton_neighbors(
    code: int, level: int, faces_only: bool = False
) -> List[int]:
    """Codes of in-bounds neighbours of ``code`` at refinement ``level``.

    ``level`` bounds the grid to ``2**level`` octants per dimension; neighbour
    positions falling outside are dropped (non-periodic domain, matching
    Octo-Tiger's isolated-boundary octree).
    """
    n = 1 << level
    ix, iy, iz = morton_decode3(code)
    offsets = FACE_OFFSETS if faces_only else NEIGHBOR_OFFSETS
    out: List[int] = []
    for dx, dy, dz in offsets:
        jx, jy, jz = ix + dx, iy + dy, iz + dz
        if 0 <= jx < n and 0 <= jy < n and 0 <= jz < n:
            out.append(morton_encode3(jx, jy, jz))
    return out
