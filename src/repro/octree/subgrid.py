"""The per-node field block: N^3 interior cells plus ghost layers.

Storage layout is ``(NFIELDS, M, M, M)`` with ``M = N + 2 * ghost`` —
structure-of-arrays, so per-field kernels get contiguous memory (the
data-structure porting of paper ref. [4]).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.octree.fields import NFIELDS, Field


class SubGrid:
    """Field storage for one octree node."""

    __slots__ = ("n", "ghost", "data")

    def __init__(self, n: int = 8, ghost: int = 2) -> None:
        if n < 2:
            raise ValueError("sub-grid edge must be >= 2 cells")
        if ghost < 1:
            raise ValueError("need at least one ghost layer")
        self.n = n
        self.ghost = ghost
        m = n + 2 * ghost
        self.data = np.zeros((NFIELDS, m, m, m), dtype=np.float64)

    @property
    def m(self) -> int:
        """Total edge length including ghosts."""
        return self.n + 2 * self.ghost

    @property
    def interior(self) -> slice:
        return slice(self.ghost, self.ghost + self.n)

    def interior_view(self, field: Field = None) -> np.ndarray:  # noqa: RUF013
        """Writable view of the interior cells (one field or all)."""
        s = self.interior
        if field is None:
            return self.data[:, s, s, s]
        return self.data[field, s, s, s]

    def set_interior(self, field: Field, values: np.ndarray) -> None:
        s = self.interior
        if values.shape != (self.n, self.n, self.n):
            raise ValueError(
                f"expected interior shape {(self.n,) * 3}, got {values.shape}"
            )
        self.data[field, s, s, s] = values

    # -- face bands (ghost exchange geometry) -------------------------------
    def ghost_slices(self, axis: int, side: int) -> Tuple[slice, slice, slice]:
        """Index of this grid's ghost band on face ``(axis, side)``.

        ``side`` 0 is the low face, 1 the high face.  Transverse directions
        cover the interior only (face-adjacent exchange; the dimensionally
        swept stencils never read edge/corner ghosts).
        """
        g, n = self.ghost, self.n
        band = slice(0, g) if side == 0 else slice(g + n, 2 * g + n)
        out = [self.interior] * 3
        out[axis] = band
        return tuple(out)

    def donor_slices(self, axis: int, side: int) -> Tuple[slice, slice, slice]:
        """Interior band a neighbour reads to fill *its* ghost band.

        For a neighbour on our high face (their low ghosts), they read our
        topmost ``ghost`` interior layers, and vice versa.
        """
        g, n = self.ghost, self.n
        band = slice(g, 2 * g) if side == 0 else slice(n, g + n)
        out = [self.interior] * 3
        out[axis] = band
        return tuple(out)

    def extract(self, slices: Tuple[slice, slice, slice]) -> np.ndarray:
        """Copy of a band across all fields (what goes on the wire)."""
        return self.data[(slice(None),) + slices].copy()

    def insert(self, slices: Tuple[slice, slice, slice], values: np.ndarray) -> None:
        self.data[(slice(None),) + slices] = values

    # -- integrals -----------------------------------------------------------
    def integral(self, field: Field, cell_volume: float) -> float:
        """Volume integral of one field over the interior."""
        return float(self.interior_view(field).sum()) * cell_volume

    def copy(self) -> "SubGrid":
        out = SubGrid(self.n, self.ghost)
        np.copyto(out.data, self.data)
        return out

    def nbytes_face(self) -> int:
        """Bytes of one face band message (feeds the communication model)."""
        return NFIELDS * self.ghost * self.n * self.n * 8
