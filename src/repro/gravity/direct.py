"""Direct O(n^2) gravity: the accuracy oracle for the FMM.

Sums every cell-cell interaction over all leaves, in memory-bounded blocks.
Quadratic and only usable on small meshes, which is exactly its job: the
tests compare FMM output against it and assert the error bounds the
expansion order implies.  Results come in the FMM's slot order, so they
compare with :class:`~repro.gravity.fmm.FmmResult`'s slot arrays whole.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.gravity.pairwise import direct_field
from repro.octree.fields import Field
from repro.octree.mesh import AmrMesh


def direct_sum(mesh: AmrMesh, g_newton: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
    """Exact potential and acceleration as slot arrays.

    ``(L, N, N, N)`` and ``(L, 3, N, N, N)``, leaves in sorted-key order
    like ``FmmResult.phi_slots`` / ``accel_slots``."""
    leaves = sorted(mesh.leaves(), key=lambda leaf: leaf.key)
    n = mesh.n
    pos = []
    mass = []
    for leaf in leaves:
        x, y, z = leaf.cell_centers()
        pos.append(np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1))
        mass.append(leaf.subgrid.interior_view(Field.RHO).ravel() * leaf.cell_volume)

    phi_flat, acc_flat = direct_field(
        np.concatenate(pos), np.concatenate(mass), g_newton=g_newton
    )
    n_leaves = len(leaves)
    accel = acc_flat.reshape(n_leaves, n**3, 3).transpose(0, 2, 1)
    return phi_flat.reshape(n_leaves, n, n, n), accel.reshape(n_leaves, 3, n, n, n)
