"""Fast-multipole-method gravity (Octo-Tiger's FMM analog).

The FMM piggybacks on the hydro octree: every node carries multipole
moments (monopole, quadrupole and — for the angular-momentum machinery —
octupole) about its centre of mass.  A solve is the paper's three phases:

1. **bottom-up** — P2M on leaves, M2M up the tree,
2. **same-level cell-to-cell** — M2L between well-separated node pairs
   found by a dual tree traversal (the Multipole kernel of Fig. 9),
3. **top-down** — L2L down the tree, then per-cell evaluation (L2P) plus
   direct near-field sums (P2P).

Plan / execute split
--------------------
The solve is organised as a cached **plan** phase and a batched **execute**
phase.  Everything derived from the octree topology alone — the dual tree
traversal, far/near/P2P interaction lists, CSR source-index arrays, leaf
cell positions and the P2P geometry-class templates — is captured once in
an :class:`~repro.gravity.plan.FmmPlan` (see :func:`~repro.gravity.plan.build_plan`).
The plan is valid while the mesh's content
:meth:`~repro.octree.mesh.AmrMesh.fingerprint` equals the one it was built
for (every :meth:`~repro.octree.mesh.AmrMesh.refine` /
:meth:`~repro.octree.mesh.AmrMesh.derefine` moves it), so
:meth:`~repro.gravity.fmm.FmmSolver.solve` transparently reuses it across
steps between regrids and rebuilds it afterwards — incrementally, from the
plan cache, or cold (``docs/plan_lifecycle.md``).  The
execute phase replaces the per-node Python loops with stacked moment
arrays, segmented M2L batches per level and two GEMMs per P2P geometry
class.  The per-node implementation is the numerical reference the
tests hold the solve to (``tests/oracles/fmm.py``).

Conservation: P2P interactions are pairwise antisymmetric, so the near field
conserves linear and angular momentum identically.  The truncated M2L far
field does not; :mod:`repro.gravity.conservation` restores both with global
projections (a different mechanism from Octo-Tiger's symmetric-kernel +
octupole-correction construction, but delivering the same machine-precision
invariants — see DESIGN.md).
"""

from repro.gravity.kernels import m2l_segmented
from repro.gravity.fmm import FmmSolver, FmmResult
from repro.gravity.plan import FmmPlan, build_plan
from repro.gravity.direct import direct_sum
from repro.gravity.conservation import (
    project_momentum,
    project_angular_momentum,
    total_force,
    total_torque,
)

__all__ = [
    "m2l_segmented",
    "FmmSolver",
    "FmmResult",
    "FmmPlan",
    "build_plan",
    "direct_sum",
    "project_momentum",
    "project_angular_momentum",
    "total_force",
    "total_torque",
]
