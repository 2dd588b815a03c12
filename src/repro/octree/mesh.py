"""The AMR mesh: an octree of sub-grids with refinement and restriction.

Invariants maintained (and tested):

* every non-leaf node has all eight children (Octo-Tiger nodes are either
  leaves or *fully refined* interiors),
* 2:1 balance: adjacent leaves differ by at most one level (enforced
  recursively on refinement, checked on derefinement),
* interior nodes hold the conservative restriction (2x2x2 average) of their
  children after :meth:`AmrMesh.restrict_all`.
"""

from __future__ import annotations

import hashlib

from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.octree.fields import Field, NFIELDS
from repro.octree.node import NodeKey, OctreeNode
from repro.util.morton import morton_encode3, morton_neighbors, morton_parent


def pack_keys(keys) -> np.ndarray:
    """Pack ``(level, morton code)`` keys into one int64 each:
    ``level << 58 | code``.

    Morton codes use 3 bits per level, so codes at the maximum practical
    depth (19 levels, 57 bits) still fit below bit 58, and packed keys sort
    exactly like ``(level, code)`` tuples within a level.
    """
    arr = np.asarray(list(keys), dtype=np.int64)
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    return (arr[:, 0] << 58) | arr[:, 1]


class AmrMesh:
    """Octree of :class:`OctreeNode` addressed by ``(level, code)``.

    ``topology_version`` is a monotonically increasing counter bumped by
    every structural mutation (:meth:`refine` / :meth:`derefine`).  Anything
    derived purely from the tree *topology* — notably the cached
    :class:`repro.gravity.plan.FmmPlan` — keys its cache on this counter and
    rebuilds automatically after a regrid.  **Invalidation contract:** any
    new mutator that adds or removes nodes, or toggles ``is_leaf``, must
    bump ``topology_version`` (field data updates need not).
    """

    def __init__(self, n: int = 8, ghost: int = 2, domain_size: float = 2.0) -> None:
        if n % 2:
            raise ValueError("sub-grid edge must be even for 2x2x2 restriction")
        self.n = n
        self.ghost = ghost
        self.domain_size = domain_size
        self.topology_version = 0
        self.nodes: Dict[NodeKey, OctreeNode] = {}
        root = OctreeNode(0, 0, n=n, ghost=ghost, domain_size=domain_size)
        self.nodes[root.key] = root
        #: (topology_version, digest) memo for :meth:`fingerprint`.
        self._fingerprint_cache: Optional[Tuple[int, str]] = None

    # -- basic queries ---------------------------------------------------------
    @property
    def root(self) -> OctreeNode:
        return self.nodes[(0, 0)]

    def __contains__(self, key: NodeKey) -> bool:
        return key in self.nodes

    def get(self, key: NodeKey) -> Optional[OctreeNode]:
        return self.nodes.get(key)

    def leaves(self) -> List[OctreeNode]:
        return [n for n in self.nodes.values() if n.is_leaf]

    def leaf_keys(self) -> List[NodeKey]:
        return [n.key for n in self.nodes.values() if n.is_leaf]

    def max_level(self) -> int:
        return max(level for level, _ in self.nodes)

    def n_subgrids(self) -> int:
        """Number of leaf sub-grids (the paper's 'sub-grid' count)."""
        return sum(1 for n in self.nodes.values() if n.is_leaf)

    def n_cells(self) -> int:
        """Evolved (leaf interior) cell count."""
        return self.n_subgrids() * self.n**3

    def __iter__(self) -> Iterator[OctreeNode]:
        return iter(self.nodes.values())

    # -- topology fingerprint --------------------------------------------------
    def fingerprint(self) -> str:
        """Deterministic content hash of the mesh *topology*.

        SHA-256 over the structural header (sub-grid edge, ghost width,
        domain size, field count) and the sorted packed leaf keys.  Two
        meshes — in the same process, across processes, or across runs —
        have equal fingerprints iff they have identical leaf sets and
        identical sub-grid geometry; the interior-node set is implied
        (every non-leaf ancestor of a leaf exists and is fully refined).

        Unlike ``topology_version`` (a process-local mutation counter),
        the fingerprint is stable content addressing: it keys the on-disk
        plan cache (:mod:`repro.core.plancache`) and the process backend's
        replan protocol.  Memoised per ``topology_version``.
        """
        cache = self._fingerprint_cache
        if cache is not None and cache[0] == self.topology_version:
            return cache[1]
        h = hashlib.sha256()
        h.update(
            np.array(
                [self.n, self.ghost, NFIELDS], dtype=np.int64
            ).tobytes()
        )
        h.update(np.float64(self.domain_size).tobytes())
        packed = pack_keys(self.leaf_keys())
        packed.sort()
        h.update(packed.tobytes())
        digest = h.hexdigest()
        self._fingerprint_cache = (self.topology_version, digest)
        return digest

    # -- refinement ---------------------------------------------------------------
    def refine(self, key: NodeKey) -> List[OctreeNode]:
        """Refine a leaf into eight children, prolonging its data.

        Recursively refines coarser neighbours first so the 2:1 balance
        holds.  Returns the newly created children.
        """
        node = self.nodes[key]
        if not node.is_leaf:
            raise ValueError(f"node {key} is already refined")
        self._ensure_balance_for_refine(node)

        node.is_leaf = False
        children: List[OctreeNode] = []
        for child_key in node.children_keys():
            level, code = child_key
            child = OctreeNode(
                level, code, n=self.n, ghost=self.ghost, domain_size=self.domain_size
            )
            child.locality = node.locality
            self._prolong_into_child(node, child)
            self.nodes[child_key] = child
            children.append(child)
        self.topology_version += 1
        return children

    def _ensure_balance_for_refine(self, node: OctreeNode) -> None:
        """Refining ``node`` creates level ``node.level+1`` leaves; every
        neighbour region of ``node`` must therefore exist at level
        ``node.level`` or finer, i.e. coarser leaf neighbours get refined
        first (recursively)."""
        if node.level == 0:
            return
        for ncode in morton_neighbors(node.code, node.level):
            # The neighbour region must exist at node.level before children
            # at node.level + 1 appear next to it.  Each pass refines the
            # deepest existing ancestor of the missing region, descending one
            # level per pass (each refine recursively re-balances itself).
            while (node.level, ncode) not in self.nodes:
                level, code = node.level, ncode
                while level > 0 and (level, code) not in self.nodes:
                    level, code = level - 1, morton_parent(code)
                ancestor = self.nodes[(level, code)]
                assert ancestor.is_leaf, "non-leaf ancestor with missing child"
                self.refine(ancestor.key)

    def _prolong_into_child(self, parent: OctreeNode, child: OctreeNode) -> None:
        """Piecewise-constant conservative prolongation: each parent cell in
        the child's octant maps onto a 2x2x2 block of child cells."""
        oct_idx = child.octant
        half = self.n // 2
        ox = (oct_idx >> 0) & 1
        oy = (oct_idx >> 1) & 1
        oz = (oct_idx >> 2) & 1
        g = self.ghost
        block = parent.subgrid.data[
            :,
            g + ox * half : g + (ox + 1) * half,
            g + oy * half : g + (oy + 1) * half,
            g + oz * half : g + (oz + 1) * half,
        ]
        fine = np.repeat(np.repeat(np.repeat(block, 2, axis=1), 2, axis=2), 2, axis=3)
        s = child.subgrid.interior
        child.subgrid.data[:, s, s, s] = fine

    def derefine(self, key: NodeKey) -> None:
        """Collapse a node's children back into it (restriction applied).

        All children must be leaves, and removing them must not break 2:1
        balance with any finer neighbour.
        """
        node = self.nodes[key]
        if node.is_leaf:
            raise ValueError(f"node {key} is a leaf")
        child_keys = node.children_keys()
        children = [self.nodes[k] for k in child_keys]
        if any(not c.is_leaf for c in children):
            raise ValueError(f"cannot derefine {key}: children are refined")
        for child in children:
            for ncode in morton_neighbors(child.code, child.level):
                neighbor = self.nodes.get((child.level, ncode))
                if neighbor is not None and not neighbor.is_leaf:
                    raise ValueError(
                        f"derefining {key} would violate 2:1 balance at "
                        f"level {child.level} code {ncode}"
                    )
        self._restrict_from_children(node)
        for k in child_keys:
            del self.nodes[k]
        node.is_leaf = True
        self.topology_version += 1

    # -- restriction -----------------------------------------------------------------
    def _restrict_from_children(self, node: OctreeNode) -> None:
        """Conservative 2x2x2 average of children interiors into ``node``."""
        g, half, n = self.ghost, self.n // 2, self.n
        for child_key in node.children_keys():
            child = self.nodes[child_key]
            oct_idx = child.octant
            ox, oy, oz = (oct_idx >> 0) & 1, (oct_idx >> 1) & 1, (oct_idx >> 2) & 1
            s = child.subgrid.interior
            fine = child.subgrid.data[:, s, s, s]
            coarse = 0.125 * (
                fine[:, 0::2, 0::2, 0::2]
                + fine[:, 1::2, 0::2, 0::2]
                + fine[:, 0::2, 1::2, 0::2]
                + fine[:, 0::2, 0::2, 1::2]
                + fine[:, 1::2, 1::2, 0::2]
                + fine[:, 1::2, 0::2, 1::2]
                + fine[:, 0::2, 1::2, 1::2]
                + fine[:, 1::2, 1::2, 1::2]
            )
            node.subgrid.data[
                :,
                g + ox * half : g + (ox + 1) * half,
                g + oy * half : g + (oy + 1) * half,
                g + oz * half : g + (oz + 1) * half,
            ] = coarse

    def restrict_all(self) -> None:
        """Bottom-up restriction so interior nodes mirror their children."""
        for level in range(self.max_level() - 1, -1, -1):
            for node in self.nodes_at_level(level):
                if not node.is_leaf:
                    self._restrict_from_children(node)

    def nodes_at_level(self, level: int) -> List[OctreeNode]:
        return [n for (l, _), n in self.nodes.items() if l == level]

    # -- neighbour lookup ------------------------------------------------------------
    def face_neighbor(
        self, node: OctreeNode, axis: int, side: int
    ) -> Tuple[str, Union[None, OctreeNode, List[OctreeNode]]]:
        """Classify the neighbour across a face of a leaf.

        Returns one of
        ``("boundary", None)`` — physical domain boundary,
        ``("same", node)`` — same-level leaf,
        ``("fine", [children...])`` — refined neighbour (its 4 face-adjacent
        children, which are leaves by 2:1 balance),
        ``("coarse", node)`` — leaf one level up.
        """
        coords = node.face_neighbor_coords(axis, side)
        if coords is None:
            return ("boundary", None)
        code = morton_encode3(*coords)
        same = self.nodes.get((node.level, code))
        if same is not None:
            if same.is_leaf:
                return ("same", same)
            # Refined: collect the 4 children touching our shared face.
            touching: List[OctreeNode] = []
            for child_key in same.children_keys():
                child = self.nodes[child_key]
                child_bit = (child.octant >> axis) & 1
                # Neighbour is on our `side`; its children facing us sit on
                # the opposite side of *its* interior.
                if child_bit != side:
                    touching.append(child)
            return ("fine", touching)
        # Walk to the parent level.
        if node.level == 0:
            return ("boundary", None)
        coarse = self.nodes.get((node.level - 1, morton_parent(code)))
        if coarse is not None and coarse.is_leaf:
            return ("coarse", coarse)
        if coarse is not None:
            raise RuntimeError(
                f"broken octree: neighbour of {node.key} exists refined at "
                f"level {node.level - 1} but not at level {node.level}"
            )
        raise RuntimeError(f"broken octree: no neighbour node for {node.key} face {(axis, side)}")

    # -- criterion-driven refinement ----------------------------------------------------
    def refine_by(
        self,
        criterion: Callable[[OctreeNode], bool],
        max_level: int,
        max_rounds: int = 64,
    ) -> int:
        """Refine leaves for which ``criterion`` holds, up to ``max_level``.

        Repeats until a fixed point (new leaves may satisfy the criterion
        too).  Returns the number of refinements performed.
        """
        total = 0
        for _ in range(max_rounds):
            to_refine = [
                leaf.key
                for leaf in self.leaves()
                if leaf.level < max_level and criterion(leaf)
            ]
            if not to_refine:
                break
            for key in to_refine:
                if key in self.nodes and self.nodes[key].is_leaf:
                    self.refine(key)
                    total += 1
        return total

    # -- invariant checks (used by tests and property checks) ----------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        for node in self.nodes.values():
            if node.is_leaf:
                for child_key in node.children_keys():
                    assert child_key not in self.nodes, f"leaf {node.key} has child"
            else:
                for child_key in node.children_keys():
                    assert child_key in self.nodes, (
                        f"interior {node.key} missing child {child_key}"
                    )
            if node.level > 0:
                assert node.parent_key in self.nodes, f"orphan node {node.key}"
        for leaf in self.leaves():
            for axis in range(3):
                for side in (0, 1):
                    kind, _ = self.face_neighbor(leaf, axis, side)
                    assert kind in ("boundary", "same", "fine", "coarse")

    # -- integrals ------------------------------------------------------------------------
    def integral(self, field: Field) -> float:
        """Domain integral of a field over leaf interiors."""
        return sum(
            leaf.subgrid.integral(field, leaf.cell_volume) for leaf in self.leaves()
        )

    def total_mass(self) -> float:
        return self.integral(Field.RHO)
