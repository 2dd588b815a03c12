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

Canonical pair state and incremental rebuilds
---------------------------------------------
The traversal's output is normalised into a :class:`PairState` — three
lexsorted ``(P, 2)`` arrays of packed ``(level << 58 | code)`` node keys —
and **every** plan array is assembled from that canonical form by
:func:`_assemble_plan`.  Because cold builds, delta builds
(:func:`update_plan`) and plan-cache hits all assemble from the same
canonical representation, their plans are bit-identical by construction:
``np.array_equal`` holds for every index array, and the solve output is
bit-identical too.

After a regrid, :func:`update_plan` avoids re-traversing the whole tree:
pairs with an endpoint in the :class:`~repro.octree.regrid.RegridDelta`
``drop_set`` are masked out, :func:`traverse` re-traverses only the
subtrees containing ``emit_set`` nodes, and the merged pair state is
re-assembled — reusing the previous plan's per-leaf cell positions and
P2P gather matrices, which are pure deterministic functions of the
surviving keys.  This is exact (see ``docs/plan_lifecycle.md`` for the
invariance argument), not approximate.

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
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro.gravity.multipole import octant_ids
from repro.octree.mesh import AmrMesh, pack_keys
from repro.octree.node import NodeKey, OctreeNode
from repro.octree.regrid import RegridDelta
from repro.util.morton import morton_parent

#: Delta rebuilds touching more than this fraction of the new leaves fall
#: back to a cold traversal (the pruned traversal would visit most of the
#: tree anyway).
DELTA_COLD_FRACTION = 0.5

#: Interaction rows per M2L kernel call.  Measured on a 64-leaf level-2
#: mesh (docs/gravity_plan.md): ``fmm.m2l`` is flat between 2 048 and 16 384
#: rows per block and slower on either side; 8 192 sits mid-plateau.
M2L_BLOCK_ROWS = 8192

_LEVEL_SHIFT = 58
_CODE_MASK = (1 << _LEVEL_SHIFT) - 1


def is_far(a: OctreeNode, b: OctreeNode, theta: float) -> bool:
    """The opening criterion: separation of at least ``2 / theta`` sizes."""
    dist = float(np.linalg.norm(a.center - b.center))
    return dist * theta >= 2.0 * max(a.node_size, b.node_size) * (1.0 - 1e-12)


def is_touching(a: OctreeNode, b: OctreeNode) -> bool:
    gap = 0.5 * (a.node_size + b.node_size) * (1.0 + 1e-12)
    return bool(np.all(np.abs(a.center - b.center) <= gap))


def traverse(
    mesh: AmrMesh, theta: float, emit_set: Optional[FrozenSet[NodeKey]] = None
) -> Tuple[
    List[Tuple[NodeKey, NodeKey]],
    List[Tuple[NodeKey, NodeKey]],
    List[Tuple[NodeKey, NodeKey]],
]:
    """Dual tree traversal: returns (far, near, p2p) pairs, each unordered.

    With ``emit_set``, only the pairs with an endpoint in it.  A pair node
    ``(a, b)`` can only yield such pairs if the subtree of ``a`` or of ``b``
    contains an ``emit_set`` node, so the traversal skips any pair node
    whose endpoints both lack a marked descendant-or-self — for a localised
    regrid this visits a small neighbourhood of the changed region instead
    of the whole pair space.  The decisions at visited pairs are the same
    code either way, so the emitted pairs match the full traversal's
    classification bit for bit.
    """
    marked: Optional[set] = None
    if emit_set is not None:
        marked = set()
        for key in emit_set:
            k = key
            while k not in marked:
                marked.add(k)
                level, code = k
                if level == 0:
                    break
                k = (level - 1, morton_parent(code))
    far: List[Tuple[NodeKey, NodeKey]] = []
    near: List[Tuple[NodeKey, NodeKey]] = []
    p2p: List[Tuple[NodeKey, NodeKey]] = []
    stack: List[Tuple[NodeKey, NodeKey]] = [((0, 0), (0, 0))]
    while stack:
        ka, kb = stack.pop()
        if marked is not None and ka not in marked and kb not in marked:
            continue
        a, b = mesh.nodes[ka], mesh.nodes[kb]
        emit = emit_set is None or ka in emit_set or kb in emit_set
        if ka == kb:
            if a.is_leaf:
                if emit:
                    p2p.append((ka, ka))
            else:
                kids = a.children_keys()
                for i in range(8):
                    for j in range(i, 8):
                        stack.append((kids[i], kids[j]))
            continue
        if is_far(a, b, theta):
            if emit:
                far.append((ka, kb))
            continue
        if a.is_leaf and b.is_leaf:
            if emit:
                (p2p if is_touching(a, b) else near).append((ka, kb))
            continue
        # Split the larger node; on a tie split whichever is refined.
        split_a = (not a.is_leaf) and (a.node_size >= b.node_size or b.is_leaf)
        if split_a:
            for kid in a.children_keys():
                stack.append((kid, kb))
        else:
            for kid in b.children_keys():
                stack.append((ka, kid))
    return far, near, p2p


# -- canonical pair state ------------------------------------------------------


def _normalize_pairs(pairs: Iterable[Tuple[NodeKey, NodeKey]]) -> np.ndarray:
    """Pack unordered key pairs into ``(P, 2)`` int64 ``(min, max)`` rows."""
    pairs = list(pairs)
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    arr = np.asarray(pairs, dtype=np.int64)  # (P, 2, 2)
    packed = (arr[..., 0] << _LEVEL_SHIFT) | arr[..., 1]  # (P, 2)
    lo = np.minimum(packed[:, 0], packed[:, 1])
    hi = np.maximum(packed[:, 0], packed[:, 1])
    return np.stack([lo, hi], axis=1)


def _canonical_pairs(rows: np.ndarray) -> np.ndarray:
    """Lexsort normalised pair rows by (first, second) endpoint."""
    if rows.shape[0] < 2:
        return rows
    order = np.lexsort((rows[:, 1], rows[:, 0]))
    return rows[order]


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

    @classmethod
    def from_traversal(cls, far, near, p2p) -> "PairState":
        return cls(
            far=_canonical_pairs(_normalize_pairs(far)),
            near=_canonical_pairs(_normalize_pairs(near)),
            p2p=_canonical_pairs(_normalize_pairs(p2p)),
        )

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
    reuse: Optional[FmmPlan] = None,
) -> FmmPlan:
    """Assemble every plan array from the canonical pair state.

    Pure vectorised grouping/sorting over the packed-key arrays: identical
    pair states produce bit-identical plans, no matter which path (cold
    traversal, delta splice, cache load) produced the state.  ``reuse``
    donates per-leaf cell positions and the P2P gather matrices from a
    previous plan of the same mesh family — both are exact functions of
    the surviving keys, so reuse changes build time, never values.
    """
    nc = mesh.n**3
    node_keys = sorted(mesh.nodes)
    packed_nodes = pack_keys(node_keys)  # sorted: pack is monotone in key order
    n_nodes = len(node_keys)
    node_center = np.empty((n_nodes, 3))
    node_level = np.empty(n_nodes, dtype=np.intp)
    for i, k in enumerate(node_keys):
        node = mesh.nodes[k]
        node_center[i] = node.center
        node_level[i] = node.level
    max_level = mesh.max_level()

    leaf_keys = [k for k in node_keys if mesh.nodes[k].is_leaf]
    packed_leaves = pack_keys(leaf_keys)
    leaf_node_idx = np.searchsorted(packed_nodes, packed_leaves).astype(np.intp)
    n_leaves = len(leaf_keys)

    reuse_pos = dict(zip(reuse.leaf_keys, reuse.leaf_pos)) if reuse is not None else {}
    leaf_pos = np.empty((n_leaves, nc, 3))
    for i, k in enumerate(leaf_keys):
        row = reuse_pos.get(k)
        if row is None:
            row = _leaf_positions(mesh.nodes[k])
        leaf_pos[i] = row
    cell_vol = np.array([mesh.nodes[k].cell_volume for k in leaf_keys])
    dx_leaf = np.array([mesh.nodes[k].dx for k in leaf_keys])

    is_leaf_mask = np.zeros(n_nodes, dtype=bool)
    is_leaf_mask[leaf_node_idx] = True
    level_interiors: List[Tuple[np.ndarray, np.ndarray]] = []
    oct8 = np.arange(8, dtype=np.int64)
    for level in range(max_level - 1, -1, -1):
        int_idx = np.flatnonzero((node_level == level) & ~is_leaf_mask)
        if int_idx.size == 0:
            continue
        codes = packed_nodes[int_idx] & _CODE_MASK
        child_packed = (
            np.int64(level + 1) << _LEVEL_SHIFT
        ) | ((codes << 3)[:, None] + oct8)
        child_idx = np.searchsorted(packed_nodes, child_packed).astype(np.intp)
        level_interiors.append((int_idx.astype(np.intp), child_idx))

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

    oct_geo_centers = np.empty((part_slots.size, 8, 3))
    offsets = (
        np.stack(
            [[(o >> 0) & 1, (o >> 1) & 1, (o >> 2) & 1] for o in range(8)]
        ).astype(float)
        - 0.5
    )
    for row, slot in enumerate(part_slots):
        leaf = mesh.nodes[leaf_keys[slot]]
        oct_geo_centers[row] = leaf.center + offsets * (leaf.node_size / 2.0)

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

    ``pair_state`` short-circuits the traversal with a precomputed
    canonical pair state (the plan-cache hit path); ``reuse`` donates
    recomputable per-key state from a previous plan.  All paths produce
    bit-identical plans for identical topologies.
    """
    if pair_state is None:
        far, near, p2p = traverse(mesh, theta)
        pair_state = PairState.from_traversal(far, near, p2p)
    return _assemble_plan(mesh, theta, pair_state, reuse=reuse)


def update_plan(
    plan: FmmPlan, mesh: AmrMesh, theta: float, delta: RegridDelta
) -> Optional[FmmPlan]:
    """Incrementally rebuild ``plan`` for the regridded ``mesh``.

    ``delta`` is the :class:`~repro.octree.regrid.RegridDelta` between the
    topology ``plan`` was built for and the live mesh (the lifecycle
    derives it, and only for a plan of the same geometry family,
    :meth:`~repro.util.lifecycle.PlanLifecycle.donor`).  Drops every
    cached pair with an endpoint in the delta's ``drop_set``, re-traverses
    only the changed subtrees (:func:`traverse` with ``emit_set``) and
    re-assembles — the result is bit-identical to a cold
    :func:`build_plan` because both assemble the same canonical pair
    state.

    Returns ``None`` when the delta path does not apply (different
    ``theta``) or is not worthwhile (more than
    :data:`DELTA_COLD_FRACTION` of the leaves changed); the caller falls
    back to a cold build.
    """
    if theta != plan.theta or delta.changed_fraction > DELTA_COLD_FRACTION:
        return None
    drop = pack_keys(delta.drop_set)
    drop.sort()

    def retained(rows: np.ndarray) -> np.ndarray:
        if rows.size == 0 or drop.size == 0:
            return rows
        keep = ~(np.isin(rows[:, 0], drop) | np.isin(rows[:, 1], drop))
        return rows[keep]

    far_add, near_add, p2p_add = traverse(mesh, theta, delta.emit_set)

    def merged(kept: np.ndarray, added) -> np.ndarray:
        add_rows = _normalize_pairs(added)
        if add_rows.size == 0:
            return kept
        return _canonical_pairs(np.concatenate([kept, add_rows]))

    state = PairState(
        far=merged(retained(plan.pair_state.far), far_add),
        near=merged(retained(plan.pair_state.near), near_add),
        p2p=merged(retained(plan.pair_state.p2p), p2p_add),
    )
    return _assemble_plan(mesh, theta, state, reuse=plan)
