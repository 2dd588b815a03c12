"""Adaptive-mesh-refinement octree of N^3 sub-grids (Octo-Tiger's mesh).

Octo-Tiger's grid is an octree whose nodes each carry an ``N x N x N``
sub-grid of hydrodynamic state (N = 8 by default).  Interior nodes are fully
refined (all eight children exist); leaves evolve, interiors hold
restrictions of their children.  This package provides:

* :class:`~repro.octree.subgrid.SubGrid` — the per-node field block with
  ghost layers,
* :class:`~repro.octree.node.OctreeNode` — tree topology + geometry,
* :class:`~repro.octree.mesh.AmrMesh` — refinement, 2:1 balance,
  restriction/prolongation, neighbour lookup,
* :mod:`~repro.octree.ghost` — ghost-layer exchange (same-level copies,
  coarse-fine interpolation, physical boundaries),
* :mod:`~repro.octree.partition` — Morton space-filling-curve partitioning
  across localities.
"""

from repro.octree.fields import Field, NFIELDS
from repro.octree.subgrid import SubGrid
from repro.octree.node import OctreeNode
from repro.octree.mesh import AmrMesh
from repro.octree.ghost import exchange_plan, GhostExchange
from repro.octree.partition import sfc_partition, partition_stats
from repro.octree.regrid import RegridResult, regrid

__all__ = [
    "Field",
    "NFIELDS",
    "SubGrid",
    "OctreeNode",
    "AmrMesh",
    "exchange_plan",
    "GhostExchange",
    "sfc_partition",
    "partition_stats",
    "RegridResult",
    "regrid",
]
