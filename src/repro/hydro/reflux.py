"""Flux correction (refluxing) at coarse-fine AMR boundaries.

At a coarse-fine interface the two sides compute *different* fluxes for the
same physical face (the coarse side from prolonged ghost data, the fine side
from its own reconstruction), so without correction the union of all cells
is not conservative.  The standard fix — which Octo-Tiger applies, enabling
its machine-precision conservation on adaptive meshes — is to make the fine
fluxes authoritative: after each stage, the coarse cells adjacent to a
refined neighbour have their flux-divergence contribution replaced by the
area-weighted restriction of the fine fluxes through the shared face.

Because Octo-Tiger (and this reproduction) advances all levels with one
global dt, no time interpolation of the flux registers is needed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.octree.mesh import AmrMesh
from repro.octree.node import NodeKey

def _transverse_axes(axis: int) -> Tuple[int, int]:
    return tuple(a for a in range(3) if a != axis)  # type: ignore[return-value]


def _restrict_face(flux: np.ndarray) -> np.ndarray:
    """2x2 area average over a face array (NFIELDS, n, n) -> (NFIELDS, n/2, n/2)."""
    return 0.25 * (
        flux[:, 0::2, 0::2]
        + flux[:, 1::2, 0::2]
        + flux[:, 0::2, 1::2]
        + flux[:, 1::2, 1::2]
    )


#: One coarse-fine face in slot terms: (coarse key, coarse slot, axis, side,
#: coarse dx, ((b1, b2, child slot), ...)) — everything
#: :func:`apply_flux_table` needs to correct one face without touching the
#: mesh.
FluxTableRow = Tuple[
    NodeKey, int, int, int, float, Tuple[Tuple[int, int, int], ...]
]


def build_reflux_table(
    mesh: AmrMesh, slot: Dict[NodeKey, int]
) -> List[FluxTableRow]:
    """Snapshot every coarse-fine face as slot indices into the flux arena.

    The rows are emitted in exactly the ``mesh.leaves()`` / axis / side
    order the per-leaf oracle (``apply_flux_corrections`` in
    ``tests/oracles/hydro_step.py``) walks, so replaying them with
    :func:`apply_flux_table` accumulates edge-overlapping corrections in
    the same order — bit-identical dudt.  Built by the parent (which holds
    the live mesh) and shipped to process-backend workers, whose forked
    mesh copy goes stale after an in-place replan and can never again be
    trusted for neighbor lookups.
    """
    table: List[FluxTableRow] = []
    for leaf in mesh.leaves():
        for axis in range(3):
            t1, t2 = _transverse_axes(axis)
            for side in (0, 1):
                kind, children = mesh.face_neighbor(leaf, axis, side)
                if kind != "fine":
                    continue
                quads = tuple(
                    (
                        (child.octant >> t1) & 1,
                        (child.octant >> t2) & 1,
                        slot[child.key],
                    )
                    for child in children
                )
                table.append(
                    (leaf.key, slot[leaf.key], axis, side, leaf.dx, quads)
                )
    return table


def apply_flux_table(
    table: List[FluxTableRow],
    rhs: Dict[NodeKey, np.ndarray],
    flux_view: np.ndarray,
    n: int,
) -> int:
    """Replay a :func:`build_reflux_table` snapshot over the flux arena.

    ``rhs`` maps *owned* leaf keys to their (NFIELDS, N, N, N) dudt views
    (rows for unowned leaves are skipped, so each face is corrected exactly
    once — by its owner); ``flux_view`` is the whole-mesh
    ``(slots, 3, 2, NFIELDS, n, n)`` boundary-flux arena.  Same arithmetic,
    same order as the per-leaf oracle: identical bits.
    """
    corrected = 0
    half = n // 2
    for key, lslot, axis, side, dx, quads in table:
        target = rhs.get(key)
        if target is None:
            continue
        coarse_flux = flux_view[lslot, axis, side]
        fine_flux = np.empty_like(coarse_flux)
        for b1, b2, cslot in quads:
            block = _restrict_face(flux_view[cslot, axis, 1 - side])
            fine_flux[
                :,
                b1 * half : (b1 + 1) * half,
                b2 * half : (b2 + 1) * half,
            ] = block
        delta = fine_flux - coarse_flux
        index = [slice(None)] * 4
        index[axis + 1] = n - 1 if side == 1 else 0
        sign = -1.0 if side == 1 else 1.0
        target[tuple(index)] += sign * delta / dx
        corrected += 1
    return corrected
