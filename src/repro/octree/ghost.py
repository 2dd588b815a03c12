"""Ghost-layer exchange between leaf sub-grids.

Each leaf fills six face bands of ghost cells before a hydro step:

* **same-level neighbour** — direct copy of the neighbour's donor band,
* **coarse neighbour** (leaf one level up) — piecewise-constant prolongation
  of the adjacent coarse layer,
* **fine neighbour** (refined, four face children) — conservative 2x2x2
  restriction of the children's donor bands,
* **physical boundary** — zero-gradient (outflow) replication of the edge
  layer, matching Octo-Tiger's isolated-star boundaries.

The paper's §VII-B communication optimization concerns exactly these
transfers: between sub-grids on the same locality the donor band can be read
directly from memory instead of going through an HPX action.
:func:`exchange_plan` enumerates every transfer with its payload size and
locality so both the functional driver and the performance simulator consume
one description.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.octree.fields import NFIELDS
from repro.octree.mesh import AmrMesh
from repro.octree.node import NodeKey, OctreeNode
from repro.octree.subgrid import SubGrid


@dataclass(frozen=True)
class GhostExchange:
    """One face transfer: fill ``dst``'s ghost band on ``(axis, side)``."""

    dst: NodeKey
    src: Optional[NodeKey]  # None for physical boundaries
    axis: int
    side: int
    kind: str  # "same" | "coarse" | "fine" | "boundary"
    size_bytes: int
    same_locality: bool


def _transverse_axes(axis: int) -> Tuple[int, int]:
    return tuple(a for a in range(3) if a != axis)  # type: ignore[return-value]


#: Child-cell offsets of the 2x2x2 restriction stencil, in summation order.
#: :meth:`repro.comms.bundle.PairBundle.pack` and the sequential fill of
#: ``tests/oracles/ghost.py`` add the eight terms in exactly this order, so
#: the two paths stay bit-identical.
_RESTRICT_OFFSETS = (
    (0, 0, 0),
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 0),
    (1, 0, 1),
    (0, 1, 1),
    (1, 1, 1),
)


def _fill_boundary(leaf: OctreeNode, axis: int, side: int) -> None:
    """Zero-gradient: replicate the outermost interior layer into ghosts."""
    sg = leaf.subgrid
    g = sg.ghost
    ghost = sg.ghost_slices(axis, side)
    edge_index = g if side == 0 else g + sg.n - 1
    edge = [sg.interior] * 3
    edge[axis] = slice(edge_index, edge_index + 1)
    layer = sg.data[(slice(None),) + tuple(edge)]
    reps = [1, 1, 1, 1]
    reps[axis + 1] = g
    sg.data[(slice(None),) + ghost] = np.tile(layer, reps)


def _fill_same(leaf: OctreeNode, neighbor: OctreeNode, axis: int, side: int) -> None:
    band = neighbor.subgrid.extract(neighbor.subgrid.donor_slices(axis, 1 - side))
    leaf.subgrid.insert(leaf.subgrid.ghost_slices(axis, side), band)


def _fill_coarse(leaf: OctreeNode, coarse: OctreeNode, axis: int, side: int) -> None:
    """Prolong the coarse neighbour's adjacent interior layer(s).

    The fine leaf spans half of the coarse node in each transverse
    direction; which half follows from the parity of the fine node's integer
    coordinates.
    """
    sg, csg = leaf.subgrid, coarse.subgrid
    g, n = sg.ghost, sg.n
    half = n // 2
    n_coarse_layers = (g + 1) // 2  # fine ghost layers covered per coarse cell pair
    cg = csg.ghost

    # Donor slices in the coarse grid.
    donor = [None, None, None]
    if side == 0:  # our low face; coarse neighbour below us donates its top layers
        donor[axis] = slice(cg + n - n_coarse_layers, cg + n)
    else:
        donor[axis] = slice(cg, cg + n_coarse_layers)
    coords = leaf.coords
    for t in _transverse_axes(axis):
        bit = coords[t] & 1
        donor[t] = slice(cg + bit * half, cg + (bit + 1) * half)
    band = csg.data[(slice(None),) + tuple(donor)]

    # Prolong by 2 in every direction, then crop the axis to g fine layers
    # adjacent to the shared face.
    fine = np.repeat(np.repeat(np.repeat(band, 2, axis=1), 2, axis=2), 2, axis=3)
    ax = axis + 1
    if side == 0:
        # Ghost band runs away from the face toward -axis; keep the layers
        # nearest the face, i.e. the last g along the axis.
        fine = np.take(fine, range(fine.shape[ax] - g, fine.shape[ax]), axis=ax)
    else:
        fine = np.take(fine, range(0, g), axis=ax)
    leaf.subgrid.insert(leaf.subgrid.ghost_slices(axis, side), fine)


def exchange_plan(mesh: AmrMesh) -> List[GhostExchange]:
    """Enumerate every ghost transfer with payload size and locality info.

    Used by the distributed driver (to route messages or use the local
    direct path) and by the performance simulator (message counts/volumes).
    """
    plan: List[GhostExchange] = []
    for leaf in mesh.leaves():
        face_bytes = leaf.subgrid.nbytes_face()
        for axis in range(3):
            for side in (0, 1):
                kind, other = mesh.face_neighbor(leaf, axis, side)
                if kind == "boundary":
                    plan.append(
                        GhostExchange(leaf.key, None, axis, side, kind, 0, True)
                    )
                elif kind == "fine":
                    for child in other:
                        plan.append(
                            GhostExchange(
                                leaf.key,
                                child.key,
                                axis,
                                side,
                                kind,
                                face_bytes // 4,
                                child.locality == leaf.locality,
                            )
                        )
                else:
                    plan.append(
                        GhostExchange(
                            leaf.key,
                            other.key,
                            axis,
                            side,
                            kind,
                            face_bytes,
                            other.locality == leaf.locality,
                        )
                    )
    return plan


# -- fill tracing -------------------------------------------------------------
#
# When every leaf's storage lives in one flat arena (repro.hydro.plan), each
# ghost band fill above is a pure gather: boundary/same/coarse fills move
# values with slicing, np.repeat, np.take and np.tile only, and the fine fill
# is a fixed 8-term average.  Tracing those *same* fill functions over cubes
# of flat arena indices (instead of field values) therefore yields, per face,
# a source-index array and a destination-index array such that
# ``arena[dst] = arena[src]`` reproduces the fill exactly.
# :func:`repro.comms.bundle.build_bundle_plan` groups the traces by
# ``(donor locality, dest locality)`` into the one ghost-exchange index
# format; on one locality the whole-mesh exchange is a single bundle.


class _IndexSubGrid(SubGrid):
    """A SubGrid whose ``data`` holds flat arena indices, for fill tracing."""

    def __init__(self, n: int, ghost: int, cube: np.ndarray) -> None:
        super().__init__(n, ghost)
        self.data = cube


class _IndexNode:
    """Just enough of :class:`OctreeNode` for the fill functions above."""

    __slots__ = ("subgrid", "coords", "octant")

    def __init__(self, subgrid: _IndexSubGrid, coords, octant: int) -> None:
        self.subgrid = subgrid
        self.coords = coords
        self.octant = octant


def _child_fine_rows(
    leaf: _IndexNode, child: _IndexNode, axis: int, side: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One face child's restriction gather rows and destination indices.

    Mirrors :func:`_fill_fine` for a single child: row ``t`` holds the
    arena indices of the ``t``-th :data:`_RESTRICT_OFFSETS` term, ``dst``
    the ghost cells its average lands on.  Eight source rows of an output
    cell always come from the same child, which is what lets a fine face
    split across locality bundles.
    """
    sg = leaf.subgrid
    g, n = sg.ghost, sg.n
    half = n // 2
    t1, t2 = _transverse_axes(axis)
    csg = child.subgrid
    cg = csg.ghost
    donor: List[Optional[slice]] = [None, None, None]
    if side == 0:
        donor[axis] = slice(cg + csg.n - 2 * g, cg + csg.n)
    else:
        donor[axis] = slice(cg, cg + 2 * g)
    donor[t1] = csg.interior
    donor[t2] = csg.interior
    band = csg.data[(slice(None),) + tuple(donor)]
    rows = np.stack([band[:, i::2, j::2, k::2] for i, j, k in _RESTRICT_OFFSETS])

    b1 = (child.octant >> t1) & 1
    b2 = (child.octant >> t2) & 1
    dest: List[Optional[slice]] = [None, None, None]
    dest[axis] = slice(0, g)
    dest[t1] = slice(b1 * half, (b1 + 1) * half)
    dest[t2] = slice(b2 * half, (b2 + 1) * half)
    dst_band = sg.data[(slice(None),) + sg.ghost_slices(axis, side)]
    dst = dst_band[(slice(None),) + tuple(dest)]
    return rows.reshape(8, -1), dst.ravel()


@dataclass(frozen=True)
class FaceTrace:
    """One face's fill, traced in **leaf-local** indices.

    ``participants`` lists the dest leaf first, then the donor leaves in
    fill order.  Every fill reads one leaf only, so each index array is an
    offset into *one* participant's ``(nfields, M, M, M)`` chunk, stored in
    the smallest unsigned dtype that holds a chunk offset: ``copy_dst`` and
    a fine part's ``dst`` into the dest leaf, ``copy_src`` into
    ``participants[-1]`` (the donor, or the dest leaf itself at a
    boundary), a fine part's ``rows`` into its child.  Relocating to any
    arena layout adds that leaf's arena offset, so a trace is a pure
    function of the participant *keys* (geometry enters only via coords
    parity and octants, which the keys determine) — valid for reuse across
    plan rebuilds until a regrid touches one of its participants.

    ``copy_src/copy_dst`` serve the gather classes (same/coarse/boundary);
    ``fine_parts`` holds per-child ``(child_key, rows (8, K), dst)`` so a
    locality-straddling fine face can split across message bundles.
    """

    kind: str
    participants: Tuple[NodeKey, ...]
    copy_src: Optional[np.ndarray]
    copy_dst: Optional[np.ndarray]
    fine_parts: Tuple[Tuple[NodeKey, np.ndarray, np.ndarray], ...]

    @property
    def nbytes(self) -> int:
        arrays = [self.copy_src, self.copy_dst] + [a for _, *pair in self.fine_parts for a in pair]
        return sum(a.nbytes for a in arrays if a is not None)


def trace_face(
    mesh: AmrMesh,
    leaf: OctreeNode,
    axis: int,
    side: int,
    nfields: int = NFIELDS,
) -> FaceTrace:
    """Trace one face's reference fill over leaf-local index cubes."""
    n, g = mesh.n, mesh.ghost
    m = n + 2 * g
    chunk = nfields * m**3
    kind, other = mesh.face_neighbor(leaf, axis, side)
    donors = [] if kind == "boundary" else ([other] if kind != "fine" else list(other))

    def proxy(node: OctreeNode) -> _IndexNode:
        cube = np.arange(chunk, dtype=np.min_scalar_type(chunk - 1)).reshape(
            nfields, m, m, m
        )
        return _IndexNode(_IndexSubGrid(n, g, cube), node.coords, node.octant)

    dest = proxy(leaf)
    donor_proxies = [proxy(d) for d in donors]
    participants = (leaf.key,) + tuple(d.key for d in donors)
    sg = dest.subgrid
    if kind == "fine":
        parts = []
        for donor, dp in zip(donors, donor_proxies):
            rows, dst = _child_fine_rows(dest, dp, axis, side)
            parts.append((donor.key, rows, dst))
        return FaceTrace(kind, participants, None, None, tuple(parts))
    band = (slice(None),) + sg.ghost_slices(axis, side)
    dst = sg.data[band].ravel().copy()
    if kind == "boundary":
        _fill_boundary(dest, axis, side)
    elif kind == "same":
        _fill_same(dest, donor_proxies[0], axis, side)
    else:
        _fill_coarse(dest, donor_proxies[0], axis, side)
    src = sg.data[band].ravel().copy()
    return FaceTrace(kind, participants, src, dst, ())


class FaceTraceCache:
    """Per-face fill traces reused across plan rebuilds.

    Keyed by ``(dest_key, axis, side)``.  A trace stays valid as long as no
    participant was touched by a topology change: a face's donor set can
    only change if the neighbouring topology changed, and every node
    involved in such a change was added, removed or toggled between leaf
    and interior — so :meth:`drop` of that key set keeps exactly the valid
    entries.  The owner (the hydro plan lifecycle) knows which topology
    the traces serve and hands over the keys changed since.  Consumed by
    :func:`repro.comms.bundle.build_bundle_plan`.
    """

    def __init__(self, nfields: int = NFIELDS) -> None:
        self.nfields = nfields
        self._traces: Dict[Tuple[NodeKey, int, int], FaceTrace] = {}

    def nbytes(self) -> int:
        """Bytes of the index arrays the cached traces hold."""
        return sum(trace.nbytes for trace in self._traces.values())

    def face(self, mesh: AmrMesh, leaf: OctreeNode, axis: int, side: int) -> FaceTrace:
        key = (leaf.key, axis, side)
        trace = self._traces.get(key)
        if trace is None:
            trace = trace_face(mesh, leaf, axis, side, self.nfields)
            self._traces[key] = trace
        return trace

    def __len__(self) -> int:
        return len(self._traces)

    def drop(self, changed: Optional[FrozenSet[NodeKey]]) -> None:
        """Drop the traces with a participant in ``changed``; ``None`` (no
        known topology to diff against) drops them all."""
        if changed is None:
            self._traces.clear()
            return
        stale = [
            key
            for key, trace in self._traces.items()
            if any(p in changed for p in trace.participants)
        ]
        for key in stale:
            del self._traces[key]
