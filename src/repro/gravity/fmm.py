"""The FMM driver: cached plan phase plus batched execute phase.

The traversal realises Octo-Tiger's solver phases on an adaptive,
2:1-balanced octree, classifying node pairs three ways:

* **far** — separation at least ``2 / THETA`` node sizes: classic M2L with
  the full node multipoles (batched per target),
* **near** — separated leaf pairs closer than that: M2L from *octant
  sub-moments* of the source's cells.  Octo-Tiger resolves these
  interactions per cell (each cell is a monopole with its own interaction
  list); octant granularity reproduces that accuracy scaling while staying
  vectorisable in NumPy,
* **P2P** — touching leaf pairs: direct cell-cell summation.

With :data:`THETA` ``= 0.5`` the far criterion is a four-node-size
separation and the near band covers the paper's "same-level cell-to-cell
interactions" stencil — the Multipole kernel whose task-splitting Fig. 9
studies.

Plan / execute split
--------------------
Everything that depends only on mesh *topology* — the dual tree traversal,
interaction lists, CSR source-index arrays, leaf cell positions and the
P2P geometry-class templates — lives in a cached
:class:`~repro.gravity.plan.FmmPlan`, valid while the mesh's content
:meth:`~repro.octree.mesh.AmrMesh.fingerprint` (and ``THETA``) still
equal the ones it was built for, so it invalidates automatically after a
regrid and is maintained through the lifecycle every plan kind shares
(:class:`FmmPlanLifecycle`, ``docs/plan_lifecycle.md``).
:meth:`FmmSolver.solve` is the batched execute phase: stacked
P2M/M2M moments, one segmented M2L call per plan-time row block
(``FmmPlan.near_blocks`` / ``FarLevel.blocks``), vectorised L2L/L2P, and
two GEMMs per P2P geometry class.  It is numerically equivalent (to
~1e-13 relative) to the per-node reference solve the tests hold it to
(``solve_reference(solver, mesh)`` in ``tests/oracles/fmm.py``), and
produces identical :class:`FmmStats`.  Per-phase wall times are reported
through :mod:`repro.profiling` under ``fmm.plan``, ``fmm.p2m_m2m``,
``fmm.m2l`` (split into ``fmm.m2l.far``, ``fmm.near_moments`` and
``fmm.m2l.near``), ``fmm.l2p`` and ``fmm.p2p``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # import cycle: repro.core.__init__ pulls in the driver
    from repro.core.plancache import PlanCache

import numpy as np

from repro.analysis.planverify import require_verified, verify_fmm_blocks
from repro.gravity.conservation import project_angular_momentum, project_momentum
from repro.gravity.kernels import m2l_segmented
from repro.gravity.multipole import (
    batched_combine,
    batched_local_evaluate,
    batched_local_shift,
    batched_moments_from_points,
)
from repro.gravity.pairwise import p2p_apply_class
from repro.gravity.plan import FmmPlan, PairState, build_plan
from repro.octree.fields import Field
from repro.octree.mesh import AmrMesh
from repro.octree.node import NodeKey
from repro.profiling.apex import CounterRegistry, global_registry
from repro.util.lifecycle import PlanLifecycle

#: Opening criterion: a pair is far at a separation of ``2 / THETA`` node
#: sizes.
THETA = 0.5
#: Gravitational constant in code units.
G_NEWTON = 1.0


@dataclass
class FmmStats:
    """Workload counters: these drive the performance simulator's gravity
    phase model."""

    p2m: int = 0
    m2m: int = 0
    m2l_pairs: int = 0  # far pairs, full-node multipoles
    near_pairs: int = 0  # octant-resolved M2L pairs
    p2p_pairs: int = 0
    l2l: int = 0
    #: Per-level M2L interaction counts.  Each far pair is counted under
    #: *both* endpoints' levels (one M2L conversion per direction), so the
    #: values sum to ``2 * m2l_pairs``.
    m2l_by_level: Dict[int, int] = field(default_factory=dict)


@dataclass
class FmmResult:
    """One solve's potential and acceleration as slot arrays.

    Row ``i`` belongs to ``leaf_keys[i]``: sorted keys, the hydro plan's
    slot order."""

    leaf_keys: List[NodeKey]
    phi_slots: np.ndarray  # (L, N, N, N)
    accel_slots: np.ndarray  # (L, 3, N, N, N)
    stats: FmmStats

    @cached_property
    def phi(self) -> Dict[NodeKey, np.ndarray]:
        """Leaf key -> its ``phi_slots`` row (a view)."""
        return dict(zip(self.leaf_keys, self.phi_slots))

    @cached_property
    def accel(self) -> Dict[NodeKey, np.ndarray]:
        """Leaf key -> its ``accel_slots`` row (a view)."""
        return dict(zip(self.leaf_keys, self.accel_slots))


class FmmPlanLifecycle(PlanLifecycle):
    """The FMM kind of the shared plan lifecycle; a request is ``theta``.

    Every tier is one :func:`repro.gravity.plan.build_plan` call: a cache
    hit hands it the stored canonical pair state, any other tier derives
    the pair lists afresh; a donor ``prev`` lends its per-leaf cell
    positions and P2P gather matrices, which makes a build a ``delta``
    one.  The cache payload is the canonical pair state.
    """

    kind = "fmm"

    def matches(self, plan, mesh, theta) -> bool:  # noqa: ANN001
        return plan.matches(mesh, theta)

    def params(self, mesh, theta) -> Dict:  # noqa: ANN001
        return {"theta": theta, "n": mesh.n}

    def build(self, tier, prev, mesh, changed, payload=None, *, theta):  # noqa: ANN001, ANN201
        state = PairState.from_payload(payload) if payload is not None else None
        return build_plan(mesh, theta, pair_state=state, reuse=prev)  # reprolint: sanctioned-cold-build

    def payload_of(self, plan) -> Dict[str, np.ndarray]:  # noqa: ANN001
        return plan.pair_state.to_payload()


class FmmSolver:
    """Computes the gravitational field of the mesh's density distribution.

    ``order`` is the multipole order (1 monopole / 2 +quadrupole /
    3 +octupole) and the correction flags control the machine-precision
    conservation projections; the opening criterion is :data:`THETA` and
    ``G`` is :data:`G_NEWTON`.

    The solver caches an :class:`~repro.gravity.plan.FmmPlan` per mesh
    topology (see :meth:`plan_for`); set ``registry`` to route the
    per-phase timers into a specific :class:`CounterRegistry` instead of
    the process-global one.
    """

    def __init__(
        self,
        order: int = 3,
        momentum_correction: bool = True,
        angmom_correction: bool = True,
        empty_mass_threshold: float = 0.0,
        verify_plans: bool = True,
        plan_cache: Optional["PlanCache"] = None,
    ) -> None:
        self.order = order
        self.momentum_correction = momentum_correction
        self.angmom_correction = angmom_correction
        #: Sub-grids whose total mass is below this act as pure vacuum
        #: sources (their P2P/M2L source side is skipped).  Star scenarios
        #: are mostly floor-density vacuum; skipping it changes forces by
        #: O(threshold / M_total) while cutting most of the P2P cost.
        self.empty_mass_threshold = empty_mass_threshold
        self.last_stats: Optional[FmmStats] = None
        self.registry: Optional[CounterRegistry] = None
        #: The FMM plan lifecycle: the current plan plus the optional
        #: persistent store (:class:`repro.core.plancache.PlanCache`) in
        #: which the canonical traversal pair state is looked up by mesh
        #: fingerprint before paying a cold dual-tree traversal.
        self.plans = FmmPlanLifecycle(plan_cache)
        #: Statically verify every plan's M2L row blocks before executing
        #: them (:func:`repro.analysis.planverify.verify_fmm_blocks`): they
        #: must tile each row list's segments in order, or the solve
        #: refuses to run.  Once per plan; the verdict lives on the plan.
        self.verify_plans = verify_plans

    # -- plan cache -----------------------------------------------------------
    def plan_for(self, mesh: AmrMesh) -> FmmPlan:
        """The cached traversal plan for ``mesh``, rebuilt only when the
        mesh topology (by content :meth:`~repro.octree.mesh.AmrMesh.\
fingerprint`) or :data:`THETA` changed — through the shared lifecycle
        (:class:`repro.util.lifecycle.PlanLifecycle`: match → delta →
        cache hit → cold, ``plan.fmm.*`` timers; the tiers are
        bit-identical).
        """
        return self.plans.plan_for(mesh, self._registry(), theta=THETA)

    def invalidate_plan(self) -> None:
        """Drop the cached plan (the next solve rebuilds it)."""
        self.plans.drop()

    def _registry(self) -> CounterRegistry:
        return self.registry if self.registry is not None else global_registry()

    def _stats_from_plan(self, plan: FmmPlan) -> FmmStats:
        return FmmStats(
            p2m=plan.n_p2m,
            m2m=plan.n_m2m,
            m2l_pairs=plan.n_m2l_pairs,
            near_pairs=plan.n_near_pairs,
            p2p_pairs=plan.p2p_pair_count,
            l2l=plan.n_l2l,
            m2l_by_level=dict(plan.m2l_by_level),
        )

    # -- the solve ------------------------------------------------------------
    def solve(self, mesh: AmrMesh) -> FmmResult:
        """Plan-cached, batched solve (see the module docstring)."""
        reg = self._registry()
        with reg.timer("fmm.plan"):
            plan = self.plan_for(mesh)
        stats = self._stats_from_plan(plan)
        n = mesh.n
        nc = n**3
        n_leaves = len(plan.leaf_keys)
        n_nodes = len(plan.node_keys)

        # Phase 1: bottom-up moments, stacked (P2M batched, M2M per level).
        with reg.timer("fmm.p2m_m2m"):
            rho = np.stack(
                [
                    mesh.nodes[k].subgrid.interior_view(Field.RHO).ravel()
                    for k in plan.leaf_keys
                ]
            )
            mass = rho * plan.cell_vol[:, None]  # (L, nc)
            # (mass, com, quad, octu) per node; com defaults to the centre
            mom = [np.zeros((n_nodes,) + (3,) * k) for k in range(4)]
            mom[1] = mom_c = plan.node_center.copy()
            leaf_mom = batched_moments_from_points(
                plan.leaf_pos, mass, plan.node_center[plan.leaf_node_idx]
            )
            for arr, val in zip(mom, leaf_mom):
                arr[plan.leaf_node_idx] = val
            for int_idx, child_idx in plan.level_interiors:  # deepest first
                parent = batched_combine(
                    *(arr[child_idx] for arr in mom), plan.node_center[int_idx]
                )
                for arr, val in zip(mom, parent):
                    arr[int_idx] = val

        # Phase 2: same-level interactions — far M2L per level, near M2L
        # from octant sub-moments, all through the segmented kernel.
        with reg.timer("fmm.m2l"):
            loc = [np.zeros((n_nodes,) + (3,) * k) for k in range(4)]  # l0..l3
            if self.verify_plans and not plan.blocks_verified:
                require_verified(verify_fmm_blocks(plan))
                plan.blocks_verified = True
            with reg.timer("fmm.m2l.far"):
                for fl in plan.far_levels:
                    for b0, b1 in fl.blocks:
                        r0 = fl.indptr[b0]
                        tgt = fl.tgt_idx[b0:b1]
                        src = fl.src_idx[r0 : fl.indptr[b1]]
                        out = m2l_segmented(
                            *(arr[src] for arr in mom),
                            mom_c[tgt], fl.indptr[b0 : b1 + 1] - r0, order=self.order,
                        )
                        for acc, val in zip(loc, out):
                            acc[tgt] += val

            n_part = len(plan.part_slots)
            n_near_tgt = len(plan.near_tgt_slots)
            with reg.timer("fmm.near_moments"):
                if n_part:
                    sub = plan.oct_cells.shape[1]
                    ppos = plan.leaf_pos[plan.part_slots][:, plan.oct_cells, :]
                    pmass = mass[plan.part_slots][:, plan.oct_cells]
                    om, oc, oq, oo = batched_moments_from_points(
                        ppos.reshape(n_part * 8, sub, 3),
                        pmass.reshape(n_part * 8, sub),
                        plan.oct_geo_centers.reshape(n_part * 8, 3),
                    )
            with reg.timer("fmm.m2l.near"):
                if n_near_tgt:
                    indptr = plan.near_indptr
                    q = [np.empty((8 * n_near_tgt,) + (3,) * k) for k in range(4)]
                    for b0, b1 in plan.near_blocks:
                        r0 = indptr[b0]
                        rows = plan.near_rows[r0 : indptr[b1]]
                        out = m2l_segmented(
                            om[rows], oc[rows], oq[rows], oo[rows],
                            oc[plan.near_center_rows[b0:b1]],
                            indptr[b0 : b1 + 1] - r0, order=self.order,
                        )
                        for acc, val in zip(q, out):
                            acc[b0:b1] = val

        # Phase 3: top-down L2L, then far-field evaluation (L2P).
        with reg.timer("fmm.l2p"):
            for int_idx, child_idx in reversed(plan.level_interiors):
                d = (mom_c[child_idx] - mom_c[int_idx][:, None, :]).reshape(-1, 3)
                shifted = batched_local_shift(
                    *(np.repeat(acc[int_idx], 8, axis=0) for acc in loc), d
                )
                flat = child_idx.reshape(-1)
                for acc, val in zip(loc, shifted):
                    acc[flat] += val

            delta = plan.leaf_pos - mom_c[plan.leaf_node_idx][:, None, :]
            idx = plan.leaf_node_idx
            phi_flat, acc_flat = batched_local_evaluate(
                *(acc[idx] for acc in loc), delta, G_NEWTON
            )
            if n_near_tgt:
                tgt_slots = plan.near_tgt_slots
                opos = plan.leaf_pos[tgt_slots][:, plan.oct_cells, :]
                ocom = oc.reshape(n_part, 8, 3)[plan.near_tgt_rows]
                odelta = (opos - ocom[:, :, None, :]).reshape(n_near_tgt * 8, sub, 3)
                po, ao = batched_local_evaluate(*q, odelta, G_NEWTON)
                cells = plan.oct_cells[None, :, :]
                phi_flat[tgt_slots[:, None, None], cells] += po.reshape(
                    n_near_tgt, 8, sub
                )
                acc_flat[tgt_slots[:, None, None], cells] += ao.reshape(
                    n_near_tgt, 8, sub, 3
                )

        # Near field: templated, class-batched direct sums.
        with reg.timer("fmm.p2p"):
            thr = self.empty_mass_threshold
            if thr > 0.0:
                src_total = mass.sum(axis=1)
            t_buf = np.empty((2, nc, nc))  # every class gathers its templates here
            for cls in plan.p2p_classes:
                tgt, src, inv_dx = cls.tgt, cls.src, cls.inv_dx
                if thr > 0.0:
                    keep = src_total[src] > thr
                    if not keep.any():
                        continue
                    if not keep.all():
                        tgt, src, inv_dx = tgt[keep], src[keep], inv_dx[keep]
                t1, t3 = cls.templates(*t_buf)
                p2p_apply_class(
                    t1, t3, tgt,
                    plan.leaf_pos[tgt], mass[src], plan.leaf_pos[src],
                    inv_dx, G_NEWTON, phi_flat, acc_flat,
                )

        # Conservation projections, in place on the (L, 3, nc) view.
        accel = acc_flat.transpose(0, 2, 1)
        if self.momentum_correction:
            project_momentum(mass, accel)
        if self.angmom_correction:
            project_angular_momentum(mass, plan.leaf_pos, accel)

        self.last_stats = stats
        return FmmResult(
            plan.leaf_keys,
            phi_flat.reshape(n_leaves, n, n, n),
            accel.reshape(n_leaves, 3, n, n, n),
            stats,
        )

    # -- integrator hook ------------------------------------------------------
    def __call__(self, mesh: AmrMesh, out: np.ndarray) -> None:
        """The :data:`~repro.hydro.integrator.GravityCallback`: fill the
        slot-ordered ``(L, 3, n, n, n)`` acceleration stack ``out``."""
        np.copyto(out, self.solve(mesh).accel_slots)
