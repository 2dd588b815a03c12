"""Test oracle: the sequential ghost fill the bundle exchange reproduces.

One leaf, one face at a time, straight from the mesh.  Every step path
fills ghosts through :class:`repro.comms.bundle.PairBundle` gathers
instead; the bundle plans are traced from the same per-face fill functions
(``_fill_boundary``, ``_fill_same``, ``_fill_coarse``; ``_child_fine_rows``
mirrors :func:`_fill_fine`), and must write exactly these bits.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.octree.ghost import (
    _fill_boundary,
    _fill_coarse,
    _fill_same,
    _RESTRICT_OFFSETS,
    _transverse_axes,
)
from repro.octree.mesh import AmrMesh
from repro.octree.node import OctreeNode


def _restrict2(band: np.ndarray) -> np.ndarray:
    """2x2x2 conservative average over the three spatial axes of
    ``(F, a, b, c)`` with even extents."""
    i, j, k = _RESTRICT_OFFSETS[0]
    total = band[:, i::2, j::2, k::2]
    for i, j, k in _RESTRICT_OFFSETS[1:]:
        total = total + band[:, i::2, j::2, k::2]
    return 0.125 * total


def _fill_fine(
    leaf: OctreeNode, children: List[OctreeNode], axis: int, side: int
) -> None:
    """Restrict the refined neighbour's face children into our ghost band."""
    sg = leaf.subgrid
    g, n = sg.ghost, sg.n
    half = n // 2
    t1, t2 = _transverse_axes(axis)
    out = np.empty(
        (sg.data.shape[0],) + tuple(
            g if a == axis else n for a in range(3)
        ),
        dtype=sg.data.dtype,
    )
    for child in children:
        csg = child.subgrid
        cg = csg.ghost
        donor = [None, None, None]
        # The children sit across our face; their donor band faces us.
        if side == 0:
            donor[axis] = slice(cg + csg.n - 2 * g, cg + csg.n)
        else:
            donor[axis] = slice(cg, cg + 2 * g)
        donor[t1] = csg.interior
        donor[t2] = csg.interior
        band = csg.data[(slice(None),) + tuple(donor)]
        coarse = _restrict2(band)  # (F, g, half, half)
        b1 = (child.octant >> t1) & 1
        b2 = (child.octant >> t2) & 1
        dest = [None, None, None]
        dest[axis] = slice(0, g)
        dest[t1] = slice(b1 * half, (b1 + 1) * half)
        dest[t2] = slice(b2 * half, (b2 + 1) * half)
        out[(slice(None),) + tuple(dest)] = coarse
    leaf.subgrid.insert(sg.ghost_slices(axis, side), out)


def fill_leaf_ghosts(mesh: AmrMesh, leaf: OctreeNode) -> None:
    """Fill all six ghost bands of one leaf from the current mesh state."""
    for axis in range(3):
        for side in (0, 1):
            kind, other = mesh.face_neighbor(leaf, axis, side)
            if kind == "boundary":
                _fill_boundary(leaf, axis, side)
            elif kind == "same":
                _fill_same(leaf, other, axis, side)
            elif kind == "coarse":
                _fill_coarse(leaf, other, axis, side)
            else:
                _fill_fine(leaf, other, axis, side)


def fill_all_ghosts(mesh: AmrMesh) -> None:
    """Ghost exchange over the whole mesh (sequential reference path).

    Reads are ordered against a snapshot-free scheme: donors are interior
    cells only, which no fill writes, so a single pass is race-free — the
    same argument that lets the paper's optimization read neighbours'
    memory directly once a promise signals the interior is up to date.
    """
    for leaf in mesh.leaves():
        fill_leaf_ghosts(mesh, leaf)
