"""Space-filling-curve load balancing across localities.

Octo-Tiger distributes octree nodes over HPX localities along a space
filling curve so each locality owns a spatially compact, contiguous run of
sub-grids.  We sort leaves by their Morton key normalised to the finest
level and split the run into weight-balanced contiguous chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.octree.mesh import AmrMesh
from repro.octree.node import NodeKey, OctreeNode


def sfc_key(node: OctreeNode, max_level: int) -> int:
    """Morton key lifted to ``max_level`` so leaves of mixed depth order
    consistently along one curve (a leaf precedes the region its finer
    neighbours occupy)."""
    return node.code << (3 * (max_level - node.level))


def sfc_assignment(
    mesh: AmrMesh,
    n_localities: int,
    weights: Optional[Dict[NodeKey, float]] = None,
) -> Dict[NodeKey, int]:
    """The SFC leaf-to-locality mapping, a pure function of topology
    (nothing is written to the mesh: plan builders take it as an input).

    ``weights`` defaults to uniform (every sub-grid has the same cell
    count).  The split is the classic SFC prefix-sum partition: locality
    ``i`` receives leaves whose cumulative weight midpoint falls in
    ``[i * W / P, (i + 1) * W / P)``.
    """
    if n_localities < 1:
        raise ValueError("n_localities must be >= 1")
    max_level = mesh.max_level()
    leaves = sorted(mesh.leaves(), key=lambda nd: (sfc_key(nd, max_level), nd.level))
    total = 0.0
    w: List[float] = []
    for leaf in leaves:
        weight = 1.0 if weights is None else weights.get(leaf.key, 1.0)
        if weight <= 0:
            raise ValueError(f"non-positive weight for {leaf.key}")
        w.append(weight)
        total += weight
    assignment: Dict[NodeKey, int] = {}
    acc = 0.0
    for leaf, weight in zip(leaves, w):
        midpoint = acc + weight / 2.0
        assignment[leaf.key] = min(
            int(midpoint * n_localities / total), n_localities - 1
        )
        acc += weight
    return assignment


def sfc_partition(
    mesh: AmrMesh,
    n_localities: int,
    weights: Optional[Dict[NodeKey, float]] = None,
) -> Dict[NodeKey, int]:
    """Assign each leaf to a locality: writes ``node.locality`` and returns
    the :func:`sfc_assignment` mapping."""
    return _apply(mesh, sfc_assignment(mesh, n_localities, weights))


def _apply(mesh: AmrMesh, assignment: Dict[NodeKey, int]) -> Dict[NodeKey, int]:
    """Write a leaf assignment onto the mesh; interior nodes live with their
    first child (Octo-Tiger keeps tree internals near their data)."""
    for key, loc in assignment.items():
        mesh.nodes[key].locality = loc
    for level in range(mesh.max_level() - 1, -1, -1):
        for node in mesh.nodes_at_level(level):
            if not node.is_leaf:
                node.locality = mesh.nodes[node.children_keys()[0]].locality
    return assignment


def round_robin_partition(mesh: AmrMesh, n_localities: int) -> Dict[NodeKey, int]:
    """Naive baseline partition: leaves dealt to localities in hash order.

    Deliberately locality-oblivious — the ablation benchmark compares its
    remote-exchange fraction against the SFC partition to show why
    Octo-Tiger distributes along a space-filling curve.
    """
    if n_localities < 1:
        raise ValueError("n_localities must be >= 1")
    ordered = sorted(mesh.leaves(), key=lambda nd: hash(nd.key))
    return _apply(
        mesh, {leaf.key: i % n_localities for i, leaf in enumerate(ordered)}
    )


@dataclass
class PartitionStats:
    n_localities: int
    subgrids_per_locality: List[int]
    imbalance: float  # max / mean subgrids
    remote_exchanges: int
    local_exchanges: int

    @property
    def remote_fraction(self) -> float:
        total = self.remote_exchanges + self.local_exchanges
        return self.remote_exchanges / total if total else 0.0


def partition_stats(mesh: AmrMesh, n_localities: int) -> PartitionStats:
    """Balance and communication statistics for the current assignment."""
    from repro.octree.ghost import exchange_plan

    counts = [0] * n_localities
    for leaf in mesh.leaves():
        counts[leaf.locality] += 1
    mean = sum(counts) / n_localities if n_localities else 0.0
    imbalance = (max(counts) / mean) if mean > 0 else 0.0
    remote = local = 0
    for ex in exchange_plan(mesh):
        if ex.src is None:
            continue
        if ex.same_locality:
            local += 1
        else:
            remote += 1
    return PartitionStats(n_localities, counts, imbalance, remote, local)
