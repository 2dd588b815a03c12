"""Cached FMM traversal plan: everything that is a pure function of topology.

The FMM solve splits into a **plan** phase and an **execute** phase
(the same reusable-traversal-object design as boxtree's ``Traversal`` and
the work-aggregation strategy of Daiß et al.): the dual tree traversal,
the far/near/P2P interaction lists, CSR-style per-target source-index
arrays, leaf cell positions/volumes, octant cell-index maps and the P2P
geometry-class templates depend only on the octree *topology* — which
changes exactly when :meth:`repro.octree.mesh.AmrMesh.refine` /
:meth:`~repro.octree.mesh.AmrMesh.derefine` run.  :class:`FmmPlan` captures
all of it once and is keyed on the mesh's content
:meth:`~repro.octree.mesh.AmrMesh.fingerprint`, so a solver reuses the plan
across every solve between regrids and rebuilds it automatically afterwards.

The execute phase (:meth:`repro.gravity.fmm.FmmSolver.solve`) then runs a
small number of vectorised batches per level instead of per-node Python
loops; see the module docstring of :mod:`repro.gravity.fmm` and
``docs/gravity_plan.md`` for the full architecture.

Canonical pair state
--------------------
:func:`pair_lists` derives the far, near and P2P pair lists from integer
node coordinates in one level-synchronous array pass, and normalises them
into a :class:`PairState` — three lexsorted ``(P, 2)`` arrays of packed
``(level << 58 | code)`` node keys.  **Every** plan array is assembled
from that canonical form by :func:`_assemble_plan`, so a cold build, a
build after a regrid and a plan-cache hit are bit-identical by
construction: ``np.array_equal`` holds for every index array, and the
solve output is bit-identical too.  After a regrid the previous plan
only donates per-leaf cell positions and P2P gather matrices, which are
pure deterministic functions of the surviving keys; the pair lists are
derived afresh.

P2P geometry classes
--------------------
Touching leaf pairs group into classes of identical relative geometry —
``(level difference, centre offset in half-units of the finer cell
width)``.  All pairs of a class share one unit-distance separation matrix,
and on regular lattices that matrix is a *stencil*: entry ``(i, j)``
depends only on the cell-index difference.  The plan keeps per class one
small ``1/|u|`` table over the distinct offsets and a reference to a gather
matrix shared by every class of the same level difference
(:func:`_class_stencil`); the execute phase gathers ``1/|u|`` and
``1/|u|**3`` into two scratch matrices shared by all classes and runs two
GEMMs per class over all of its pairs.

Row blocking
------------
Every M2L row list (the near list and each far level) carries plan-time
``blocks``: contiguous segment ranges of at most :data:`M2L_BLOCK_ROWS`
rows cut by :func:`_row_blocks`, the paper's SVII-C / Fig. 9 work-split
applied to memory.  The execute phase runs the segmented kernel once per
block, so its temporaries are block-sized instead of list-sized; no block
cuts a segment and each segment is reduced independently, so the result
is bit-identical to one call over the whole list.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gravity.multipole import octant_ids
from repro.octree.mesh import AmrMesh, pack_keys
from repro.octree.node import NodeKey, OctreeNode

#: Interaction rows per M2L kernel call.  Measured on a 64-leaf level-2
#: mesh (docs/gravity_plan.md): ``fmm.m2l`` is flat between 2 048 and 16 384
#: rows per block and slower on either side; 8 192 sits mid-plateau.
M2L_BLOCK_ROWS = 8192

_LEVEL_SHIFT = 58
_CODE_MASK = (1 << _LEVEL_SHIFT) - 1


# -- canonical pair state ------------------------------------------------------


@dataclass(frozen=True)
class PairState:
    """Canonical traversal output: lexsorted packed ``(min, max)`` pairs.

    The single source of truth every plan array is assembled from.  Two
    identical topologies produce identical pair states regardless of how
    they were reached (cold traversal, delta splice, cache load), which is
    what makes the three build paths bit-identical.
    """

    far: np.ndarray  # (Pf, 2) int64
    near: np.ndarray  # (Pn, 2)
    p2p: np.ndarray  # (Pp, 2); self pairs appear as (k, k)

    def to_payload(self) -> Dict[str, np.ndarray]:
        """Flat array payload for the on-disk plan cache."""
        return {"far": self.far, "near": self.near, "p2p": self.p2p}

    @classmethod
    def from_payload(cls, payload: Dict[str, np.ndarray]) -> "PairState":
        return cls(
            far=np.asarray(payload["far"], dtype=np.int64).reshape(-1, 2),
            near=np.asarray(payload["near"], dtype=np.int64).reshape(-1, 2),
            p2p=np.asarray(payload["p2p"], dtype=np.int64).reshape(-1, 2),
        )


# -- the node table and the interaction lists ---------------------------------


@dataclass(frozen=True)
class _NodeTable:
    """Every node of one mesh, in sorted key order: what :func:`pair_lists`
    and :func:`_assemble_plan` read, built once per FMM build."""

    keys: List[NodeKey]
    packed: np.ndarray  # (N,) int64 ``level << 58 | code``, ascending
    level: np.ndarray  # (N,) intp
    coords: np.ndarray  # (N, 3) int64 lattice coordinates on the node's level
    leaf: np.ndarray  # (N,) bool
    children: np.ndarray  # (N, 8) intp node indices in octant order; -1 on leaves


def _node_table(mesh: AmrMesh) -> _NodeTable:
    keys = sorted(mesh.nodes)
    nodes = [mesh.nodes[k] for k in keys]
    packed = pack_keys(keys)  # sorted: pack is monotone in key order
    leaf = np.array([node.is_leaf for node in nodes])
    children = np.full((len(keys), 8), -1, dtype=np.intp)
    inner = np.flatnonzero(~leaf)
    child_level = ((packed[inner] >> _LEVEL_SHIFT) + 1) << _LEVEL_SHIFT
    child_codes = ((packed[inner] & _CODE_MASK) << 3)[:, None] + np.arange(8)
    children[inner] = np.searchsorted(packed, child_level[:, None] | child_codes)
    return _NodeTable(
        keys=keys,
        packed=packed,
        level=np.array([node.level for node in nodes], dtype=np.intp),
        coords=np.array([node.coords for node in nodes], dtype=np.int64),
        leaf=leaf,
        children=children,
    )


#: Row/column octants of the 36 child pairs an interior self pair opens into.
_SELF_SPLIT = np.triu_indices(8)


def _pair_lists(table: _NodeTable, theta: float) -> PairState:
    """The dual tree traversal as one level-synchronous pass over
    ``table``; see :func:`pair_lists`."""
    finest = int(table.level.max())
    size = np.left_shift(1, finest - table.level)  # edge, in finest-level edges
    centre = (2 * table.coords + 1) * size[:, None]  # in finest-level half-edges
    emitted: Dict[str, List[Tuple[np.ndarray, np.ndarray]]] = {
        "far": [], "near": [], "p2p": []
    }
    a = b = np.zeros(1, dtype=np.intp)  # the root pairs with itself
    while a.size:
        same = a == b
        d = centre[a] - centre[b]
        s_max = np.maximum(size[a], size[b])
        far = ~same & (theta * theta * (d * d).sum(axis=1) >= 16 * s_max * s_max)
        leaves = table.leaf[a] & table.leaf[b] & ~far
        touch = leaves & np.all(np.abs(d) <= (size[a] + size[b])[:, None], axis=1)
        for name, mask in (("far", far), ("p2p", touch), ("near", leaves & ~touch)):
            emitted[name].append((a[mask], b[mask]))
        # Open the rest: an interior self pair into its 36 child pairs,
        # any other pair by splitting the larger node (on a tie whichever
        # is refined).
        opened = ~far & ~leaves
        kids = table.children[a[opened & same]]
        rest = opened & ~same
        split_a = rest & ~table.leaf[a] & ((table.level[a] <= table.level[b]) | table.leaf[b])
        split_b = rest & ~split_a
        a = np.concatenate([
            kids[:, _SELF_SPLIT[0]].ravel(),
            table.children[a[split_a]].ravel(),
            np.repeat(a[split_b], 8),
        ])
        b = np.concatenate([
            kids[:, _SELF_SPLIT[1]].ravel(),
            np.repeat(b[split_a], 8),
            table.children[b[split_b]].ravel(),
        ])

    def canonical(pairs: List[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        pa = table.packed[np.concatenate([p[0] for p in pairs])]
        pb = table.packed[np.concatenate([p[1] for p in pairs])]
        rows = np.stack([np.minimum(pa, pb), np.maximum(pa, pb)], axis=1)
        return rows[np.lexsort((rows[:, 1], rows[:, 0]))]

    return PairState(**{name: canonical(pairs) for name, pairs in emitted.items()})


def pair_lists(mesh: AmrMesh, theta: float) -> PairState:
    """The far, near and P2P pair lists of ``mesh`` at opening angle ``theta``.

    Level-synchronous dual tree traversal from ``(root, root)``: each round
    classifies every pair of the frontier at once and expands the ones it
    does not emit into the next frontier.  A self pair of a leaf is P2P; an
    interior self pair opens into its 36 child pairs.  Any other pair is
    *far* when ``theta**2 * |dc|**2 >= 16 * s**2``, with centre offsets
    ``dc`` in half-edges of the finest level's nodes and ``s`` the larger
    node's edge in whole finest-level edges (a separation of at least
    ``2 / theta`` node sizes); two leaves that are not far are P2P when
    they touch (``|dc_k| <= s_a + s_b`` on every axis) and near
    otherwise; anything else splits its larger node, or on a tie whichever
    is refined.  Offsets and sizes are integers, so the tests are exact on
    any ``domain_size``.
    """
    return _pair_lists(_node_table(mesh), theta)


def _m2l_by_level_packed(far: np.ndarray) -> Dict[int, int]:
    if far.size == 0:
        return {}
    levels = np.concatenate([far[:, 0], far[:, 1]]) >> _LEVEL_SHIFT
    vals, counts = np.unique(levels, return_counts=True)
    return {int(v): int(c) for v, c in zip(vals, counts)}


@dataclass
class P2PClass:
    """All directed P2P edges sharing one relative leaf geometry."""

    key: Tuple[int, Tuple[int, int, int]]
    tgt: np.ndarray  # (E,) target leaf slots
    src: np.ndarray  # (E,) source leaf slots
    inv_dx: np.ndarray  # (E,) template scale (1 / finer cell width)
    upos_t: np.ndarray  # (nc, 3) unit target cell positions
    upos_s: np.ndarray  # (nc, 3) unit source cell positions
    tab: np.ndarray  # (E_x, E_y, E_z) 1/|u| per distinct cell offset
    rel: np.ndarray  # (3, n, n) per-axis offset index of (target, source)
    gather: np.ndarray  # (nc, nc) flat index into ``tab``; shared, see gather_store

    def templates(self, t1: np.ndarray, t3: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Gather ``(1/|u|, 1/|u|**3)`` into the caller's two ``(nc, nc)``
        scratch matrices.  ``mode="clip"`` skips numpy's per-element bounds
        check (0.52 -> 0.19 ms per matrix); that ``gather`` is in range is
        proved once per plan by ``planverify.verify_fmm_gathers``."""
        tab3 = self.tab * self.tab
        tab3 *= self.tab
        np.take(self.tab, self.gather, out=t1, mode="clip")
        np.take(tab3, self.gather, out=t3, mode="clip")
        return t1, t3


def _class_stencil(
    key, upos_t: np.ndarray, upos_s: np.ndarray, n: int, store: Dict[bytes, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(tab, rel, gather)`` of one class: ``tab[gather]`` is its ``1/|u|``
    template, ``t1[i, j] = 1/|upos_t[i] - upos_s[j]|`` (0 where coincident).

    ``a = 2 * upos_t`` and ``b = 2 * upos_s`` are integers that depend per
    axis on that axis' cell index only (checked: ``ValueError`` naming
    ``key``), so ``4 |u|^2`` is a sum of three squares of ``d_k = a_k[i_k] -
    b_k[j_k] = lo_k + g_k * rel_k`` with ``rel_k`` in ``[0, E_k)``.  ``tab``
    holds ``2 / sqrt(4 |u|^2)`` over the ``(E_x, E_y, E_z)`` distinct
    offsets; ``gather`` flattens the three ``rel`` patterns into an index
    into it and depends on nothing else, so it is looked up in (or added
    to) ``store`` by the pattern bytes.
    """
    grid = (2.0 * np.stack([upos_t, upos_s])).reshape(2, n, n, n, 3)  # cells are C-ordered
    ax = np.stack([grid[:, :, 0, 0, 0], grid[:, 0, :, 0, 1], grid[:, 0, 0, :, 2]], axis=1)
    separable = np.empty_like(grid)
    separable[..., 0] = ax[:, 0, :, None, None]
    separable[..., 1] = ax[:, 1, None, :, None]
    separable[..., 2] = ax[:, 2, None, None, :]
    if not (np.array_equal(ax, np.rint(ax)) and np.array_equal(grid, separable)):
        raise ValueError(
            f"P2P class {key}: 2 * unit cell positions are not integral "
            f"and separable in C order; the stencil form does not apply"
        )
    ax = ax.astype(np.intp)  # (2, 3, n): target / source, axis, cell index
    d = ax[0][:, :, None] - ax[1][:, None, :]  # (3, n, n)
    lo = d.min(axis=(1, 2), keepdims=True)
    g = np.maximum(np.gcd.reduce((d - lo).reshape(3, -1), axis=1), 1)[:, None, None]
    rel = (d - lo) // g
    ext = rel.max(axis=(1, 2)) + 1
    sx, sy, sz = ((lo[k, 0, 0] + g[k, 0, 0] * np.arange(ext[k])) ** 2 for k in range(3))
    q = sx[:, None, None] + sy[:, None] + sz
    tab = 2.0 / np.sqrt(np.maximum(q, 1))  # q = 4 |u|^2, an integer: 1/|u| = 2 / sqrt(q)
    tab[q == 0] = 0.0  # coincident entries (the masked self-pair diagonal)
    gather = store.get(rel.tobytes())
    if gather is None:  # [i_x, j_x, i_y, j_y, i_z, j_z] -> [(i_x i_y i_z), (j_x j_y j_z)]
        flat = np.add.outer(np.add.outer(rel[0] * (ext[1] * ext[2]), rel[1] * ext[2]), rel[2])
        gather = store[rel.tobytes()] = flat.transpose(0, 2, 4, 1, 3, 5).reshape(n**3, n**3)
    return tab, rel, gather


def _row_blocks(indptr: np.ndarray, max_rows: int) -> np.ndarray:
    """Cut a CSR row list into ``(B, 2)`` contiguous segment ranges
    ``[s0, s1)`` of at most ``max_rows`` rows each, greedily and only at
    segment boundaries; a single heavier segment is its own block."""
    n_seg = indptr.size - 1
    blocks: List[Tuple[int, int]] = []
    s0 = 0
    while s0 < n_seg:
        fit = int(np.searchsorted(indptr, indptr[s0] + max_rows, side="right")) - 1
        s1 = max(fit, s0 + 1)
        blocks.append((s0, s1))
        s0 = s1
    return np.asarray(blocks, dtype=np.intp).reshape(-1, 2)


@dataclass
class FarLevel:
    """CSR interaction lists of all far-pair targets at one tree level."""

    tgt_idx: np.ndarray  # (T,) target node indices
    indptr: np.ndarray  # (T+1,)
    src_idx: np.ndarray  # (R,) source node indices, concatenated per target
    blocks: np.ndarray  # (B, 2) row blocks: target ranges [s0, s1)


@dataclass
class FmmPlan:
    """Topology-derived state of one mesh, reused across solves.

    Built by :func:`build_plan`; invalidated by comparing the stored
    topology :attr:`fingerprint` (and ``theta``) against the live mesh —
    see the invalidation contract on :class:`repro.octree.mesh.AmrMesh`
    and ``docs/plan_lifecycle.md``.
    """

    theta: float
    n: int
    mesh_ref: "weakref.ReferenceType[AmrMesh]"
    #: Content hash of the topology this plan was assembled for.
    fingerprint: str

    # -- canonical traversal output (delta and cache substrate) -------------
    pair_state: PairState

    # -- node indexing ------------------------------------------------------
    node_keys: List[NodeKey]
    node_center: np.ndarray  # (N, 3)
    node_level: np.ndarray  # (N,)
    max_level: int

    # -- leaves -------------------------------------------------------------
    leaf_keys: List[NodeKey]
    leaf_node_idx: np.ndarray  # (L,) node index of each leaf slot
    leaf_pos: np.ndarray  # (L, nc, 3) cell centres
    cell_vol: np.ndarray  # (L,)

    # -- per-level tree structure (M2M bottom-up, L2L top-down) -------------
    #: deepest-first [(interior node idx (K,), children node idx (K, 8))]
    level_interiors: List[Tuple[np.ndarray, np.ndarray]]

    # -- far interactions ---------------------------------------------------
    far_levels: List[FarLevel]

    # -- near (octant-resolved) interactions --------------------------------
    part_slots: np.ndarray  # (P,) leaf slots needing octant moments
    part_row: np.ndarray  # (L,) slot -> participant row (-1 if absent)
    oct_cells: np.ndarray  # (8, nc // 8) cell indices per octant
    oct_geo_centers: np.ndarray  # (P, 8, 3) geometric octant centres
    near_tgt_slots: np.ndarray  # (T,) near-target leaf slots
    near_tgt_rows: np.ndarray  # (T,) their participant rows
    near_rows: np.ndarray  # (R,) rows into flattened (P*8) octant arrays
    near_indptr: np.ndarray  # (8T+1,) segment bounds per (target, octant)
    near_center_rows: np.ndarray  # (8T,) rows into flattened (P*8) octant COMs
    near_blocks: np.ndarray  # (B, 2) row blocks: segment ranges [s0, s1)

    # -- P2P ----------------------------------------------------------------
    p2p_classes: List[P2PClass]
    p2p_pair_count: int

    # -- static workload counters ------------------------------------------
    n_p2m: int
    n_m2m: int
    n_l2l: int
    n_m2l_pairs: int
    n_near_pairs: int
    m2l_by_level: Dict[int, int] = field(default_factory=dict)

    #: Set once :func:`repro.analysis.planverify.verify_fmm_blocks` passed
    #: on this very object (the verdict travels with the plan it is about).
    blocks_verified: bool = False

    #: Chain-wide P2P gather matrices (``rel`` pattern bytes ->
    #: :attr:`P2PClass.gather`), shared *by reference* along a reuse/update
    #: chain of plans and by every class with the same pattern — one per
    #: level difference, so 1 on a uniform mesh and 3 on a 2:1-balanced
    #: one.  Dropped (with the chain) on :meth:`FmmSolver.invalidate_plan`.
    gather_store: Dict[bytes, np.ndarray] = field(default_factory=dict)

    def matches(self, mesh: AmrMesh, theta: float) -> bool:
        """Whether this plan is still valid for ``mesh`` at ``theta``.

        The topology comparison is the content fingerprint (memoised on
        the mesh per ``topology_version``, so this stays cheap); the
        identity check keeps plans scoped to their own mesh object —
        cross-mesh sharing of cold-build work goes through the
        content-addressed :mod:`repro.core.plancache` instead.
        """
        return (
            self.mesh_ref() is mesh
            and self.fingerprint == mesh.fingerprint()
            and self.theta == theta
        )

    def nbytes(self) -> Dict[str, int]:
        """Bytes this plan holds, by owner: ``lists`` (CSR / index arrays),
        ``positions`` (cell and node geometry) and ``templates`` (each shared
        P2P gather matrix once, plus every class's offset table)."""
        lists = [self.pair_state.far, self.pair_state.near, self.pair_state.p2p,
                 self.node_level, self.leaf_node_idx, self.part_slots,
                 self.part_row, self.oct_cells, self.near_tgt_slots,
                 self.near_tgt_rows, self.near_rows, self.near_indptr,
                 self.near_center_rows, self.near_blocks]
        for pair in self.level_interiors:
            lists.extend(pair)
        for fl in self.far_levels:
            lists.extend((fl.tgt_idx, fl.indptr, fl.src_idx, fl.blocks))
        positions = [self.node_center, self.leaf_pos, self.cell_vol, self.oct_geo_centers]
        for cls in self.p2p_classes:
            lists.extend((cls.tgt, cls.src, cls.inv_dx))
            positions.extend((cls.upos_t, cls.upos_s))
        templates = list(self.gather_store.values())
        templates.extend(cls.tab for cls in self.p2p_classes)
        return {
            "lists": sum(a.nbytes for a in lists),
            "positions": sum(a.nbytes for a in positions),
            "templates": sum(a.nbytes for a in templates),
        }


def _leaf_positions(leaf: OctreeNode) -> np.ndarray:
    x, y, z = leaf.cell_centers()
    return np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)


def _assemble_plan(
    mesh: AmrMesh,
    theta: float,
    state: PairState,
    table: _NodeTable,
    reuse: Optional[FmmPlan] = None,
) -> FmmPlan:
    """Assemble every plan array from the canonical pair state.

    Pure vectorised grouping/sorting over the packed-key arrays of
    ``table`` (the mesh's :func:`_node_table`): identical pair states
    produce bit-identical plans, no matter which path (traversal or cache
    load) produced the state.  ``reuse`` donates per-leaf cell positions
    and the P2P gather matrices from a previous plan of the same mesh
    family — both are exact functions of the surviving keys, so reuse
    changes build time, never values.
    """
    nc = mesh.n**3
    node_keys = table.keys
    packed_nodes = table.packed
    node_level = table.level
    n_nodes = len(node_keys)
    # OctreeNode.center, vectorised: the same float operations in the same order.
    node_size = mesh.domain_size / np.left_shift(1, node_level)
    node_center = (table.coords * node_size[:, None] - mesh.domain_size / 2.0) + (
        node_size[:, None] / 2.0
    )
    max_level = int(node_level.max())

    leaf_node_idx = np.flatnonzero(table.leaf)
    leaf_keys = [node_keys[i] for i in leaf_node_idx]
    packed_leaves = packed_nodes[leaf_node_idx]
    n_leaves = len(leaf_keys)

    reuse_pos = dict(zip(reuse.leaf_keys, reuse.leaf_pos)) if reuse is not None else {}
    leaf_pos = np.empty((n_leaves, nc, 3))
    for i, k in enumerate(leaf_keys):
        row = reuse_pos.get(k)
        if row is None:
            row = _leaf_positions(mesh.nodes[k])
        leaf_pos[i] = row
    cell_vol = np.array([mesh.nodes[k].cell_volume for k in leaf_keys])
    dx_leaf = node_size[leaf_node_idx] / mesh.n

    level_interiors: List[Tuple[np.ndarray, np.ndarray]] = []
    for level in range(max_level - 1, -1, -1):
        int_idx = np.flatnonzero((node_level == level) & ~table.leaf)
        if int_idx.size:
            level_interiors.append((int_idx, table.children[int_idx]))

    # Far CSR, grouped per target level.  Directed edges lexsorted by
    # (target, source) packed key: packed keys sort level-major, so targets
    # come out grouped by level with canonically sorted source segments.
    far_levels: List[FarLevel] = []
    if state.far.size:
        tgt = np.concatenate([state.far[:, 0], state.far[:, 1]])
        src = np.concatenate([state.far[:, 1], state.far[:, 0]])
        order = np.lexsort((src, tgt))
        tgt = tgt[order]
        src = src[order]
        uniq, starts = np.unique(tgt, return_index=True)
        bounds = np.append(starts, tgt.size)
        lev_of = uniq >> _LEVEL_SHIFT
        for level in range(max_level + 1):
            lo = int(np.searchsorted(lev_of, level))
            hi = int(np.searchsorted(lev_of, level + 1))
            if lo == hi:
                continue
            tgt_idx = np.searchsorted(packed_nodes, uniq[lo:hi]).astype(np.intp)
            indptr = (bounds[lo : hi + 1] - bounds[lo]).astype(np.intp)
            src_idx = np.searchsorted(
                packed_nodes, src[bounds[lo] : bounds[hi]]
            ).astype(np.intp)
            far_levels.append(
                FarLevel(tgt_idx, indptr, src_idx, _row_blocks(indptr, M2L_BLOCK_ROWS))
            )

    # Near (octant-resolved) interactions, target-major in sorted-slot order.
    octant = octant_ids(mesh.n)
    oct_cells = np.stack([np.flatnonzero(octant == o) for o in range(8)])
    if state.near.size:
        t = np.concatenate([state.near[:, 0], state.near[:, 1]])
        s = np.concatenate([state.near[:, 1], state.near[:, 0]])
        order = np.lexsort((s, t))
        t = t[order]
        s = s[order]
        t_slot = np.searchsorted(packed_leaves, t).astype(np.intp)
        s_slot = np.searchsorted(packed_leaves, s).astype(np.intp)
        part_slots = np.unique(np.concatenate([t_slot, s_slot])).astype(np.intp)
    else:
        t_slot = s_slot = np.empty(0, dtype=np.intp)
        part_slots = np.empty(0, dtype=np.intp)
    part_row = np.full(n_leaves, -1, dtype=np.intp)
    part_row[part_slots] = np.arange(part_slots.size)

    offsets = ((np.arange(8)[:, None] >> np.arange(3)) & 1) - 0.5  # (8, 3) octant offsets
    part_nodes = leaf_node_idx[part_slots]
    oct_geo_centers = node_center[part_nodes][:, None, :] + offsets * (
        node_size[part_nodes] / 2.0
    )[:, None, None]

    if t_slot.size:
        near_tgt_slots, tstarts = np.unique(t_slot, return_index=True)
        near_tgt_slots = near_tgt_slots.astype(np.intp)
        tbounds = np.append(tstarts, t_slot.size)
    else:
        near_tgt_slots = np.empty(0, dtype=np.intp)
        tbounds = np.zeros(1, dtype=np.intp)
    near_tgt_rows = part_row[near_tgt_slots]
    near_rows_parts: List[np.ndarray] = []
    near_counts: List[int] = []
    near_center_parts: List[np.ndarray] = []
    oct8p = np.arange(8, dtype=np.intp)
    for j, tslot in enumerate(near_tgt_slots):
        seg = s_slot[tbounds[j] : tbounds[j + 1]]
        # One octant pass gathers all 8 sub-moments of every source leaf
        # (source-major, octant-minor), repeated for the 8 target octants.
        rows_t = (part_row[seg][:, None] * 8 + oct8p).ravel()
        near_rows_parts.append(np.tile(rows_t, 8))
        near_counts.extend([rows_t.size] * 8)
        near_center_parts.append(part_row[tslot] * 8 + oct8p)
    near_rows = (
        np.concatenate(near_rows_parts) if near_rows_parts else np.empty(0, dtype=np.intp)
    )
    near_indptr = np.concatenate([[0], np.cumsum(near_counts)]).astype(np.intp)
    near_center_rows = (
        np.concatenate(near_center_parts)
        if near_center_parts
        else np.empty(0, dtype=np.intp)
    )

    # P2P geometry classes from directed edges, grouped by packed class key
    # and ordered canonically (class key, then target, then source).
    p2p_classes: List[P2PClass] = []
    store = reuse.gather_store if reuse is not None else {}
    if state.p2p.size:
        self_mask = state.p2p[:, 0] == state.p2p[:, 1]
        a, b = state.p2p[:, 0], state.p2p[:, 1]
        dt = np.concatenate([a, b[~self_mask]])
        ds = np.concatenate([b, a[~self_mask]])
        dt_slot = np.searchsorted(packed_leaves, dt).astype(np.intp)
        ds_slot = np.searchsorted(packed_leaves, ds).astype(np.intp)
        dxm = np.minimum(dx_leaf[dt_slot], dx_leaf[ds_slot])
        ct = node_center[leaf_node_idx[dt_slot]]
        cs = node_center[leaf_node_idx[ds_slot]]
        off = np.rint(2.0 * (ct - cs) / dxm[:, None]).astype(np.int64)
        dl = (dt >> _LEVEL_SHIFT) - (ds >> _LEVEL_SHIFT)
        ckey = (
            ((dl + 32) << 45)
            | ((off[:, 0] + 512) << 30)
            | ((off[:, 1] + 512) << 15)
            | (off[:, 2] + 512)
        )
        order = np.lexsort((ds, dt, ckey))
        ckey_s = ckey[order]
        uniq_c, cstarts = np.unique(ckey_s, return_index=True)
        cbounds = np.append(cstarts, ckey_s.size)
        for j in range(uniq_c.size):
            seg = order[cbounds[j] : cbounds[j + 1]]
            rep = seg[0]
            key = (int(dl[rep]), tuple(int(v) for v in off[rep]))
            pos_t = leaf_pos[dt_slot[rep]]
            pos_s = leaf_pos[ds_slot[rep]]
            rep_dxm = dxm[rep]
            # Unit positions are exact half-integers on the dxm lattice;
            # rounding makes every class member share identical templates.
            upos_t = np.rint(2.0 * (pos_t - pos_s[0]) / rep_dxm) / 2.0
            upos_s = np.rint(2.0 * (pos_s - pos_s[0]) / rep_dxm) / 2.0
            tab, rel, gather = _class_stencil(key, upos_t, upos_s, mesh.n, store)
            p2p_classes.append(
                P2PClass(
                    key=key,
                    tgt=dt_slot[seg],
                    src=ds_slot[seg],
                    inv_dx=1.0 / dxm[seg],
                    upos_t=upos_t,
                    upos_s=upos_s,
                    tab=tab,
                    rel=rel,
                    gather=gather,
                )
            )

    n_interiors = n_nodes - n_leaves
    return FmmPlan(
        theta=theta,
        n=mesh.n,
        mesh_ref=weakref.ref(mesh),
        fingerprint=mesh.fingerprint(),
        pair_state=state,
        node_keys=node_keys,
        node_center=node_center,
        node_level=node_level,
        max_level=max_level,
        leaf_keys=leaf_keys,
        leaf_node_idx=leaf_node_idx,
        leaf_pos=leaf_pos,
        cell_vol=cell_vol,
        level_interiors=level_interiors,
        far_levels=far_levels,
        part_slots=part_slots,
        part_row=part_row,
        oct_cells=oct_cells,
        oct_geo_centers=oct_geo_centers,
        near_tgt_slots=near_tgt_slots,
        near_tgt_rows=near_tgt_rows,
        near_rows=near_rows,
        near_indptr=near_indptr,
        near_center_rows=near_center_rows,
        near_blocks=_row_blocks(near_indptr, M2L_BLOCK_ROWS),
        p2p_classes=p2p_classes,
        gather_store=store,
        p2p_pair_count=int(state.p2p.shape[0]),
        n_p2m=n_leaves,
        n_m2m=n_interiors,
        n_l2l=8 * n_interiors,
        n_m2l_pairs=int(state.far.shape[0]),
        n_near_pairs=int(state.near.shape[0]),
        m2l_by_level=_m2l_by_level_packed(state.far),
    )


def build_plan(
    mesh: AmrMesh,
    theta: float,
    pair_state: Optional[PairState] = None,
    reuse: Optional[FmmPlan] = None,
) -> FmmPlan:
    """Build the full traversal plan of ``mesh`` for opening angle ``theta``.

    ``pair_state`` short-circuits :func:`pair_lists` with a precomputed
    canonical pair state (the plan-cache hit path); ``reuse`` donates
    recomputable per-key state from a previous plan.  All paths produce
    bit-identical plans for identical topologies.
    """
    table = _node_table(mesh)
    if pair_state is None:
        pair_state = _pair_lists(table, theta)
    return _assemble_plan(mesh, theta, pair_state, table, reuse=reuse)
