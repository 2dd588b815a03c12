"""Static plan verification (repro.analysis.planverify).

Closed-form disjointness proofs over the live plan index arrays, and the
acceptance case mirroring ``tests/test_shmrace.py``: the same seeded
scatter-overlap race is caught *statically* by ``verify_process_plan``
before a single worker forks.
"""

import tracemalloc

import numpy as np
import pytest

from repro.analysis.planverify import (
    PlanVerificationError,
    PlanViolation,
    require_verified,
    verify_bundle_plan,
    verify_fmm_blocks,
    verify_fmm_gathers,
    verify_mesh_plans,
    verify_partition,
    verify_process_plan,
)
from repro.comms.bundle import build_bundle_plan
from repro.gravity.fmm import FmmSolver
from repro.gravity.plan import build_plan
from repro.hydro.integrator import HydroIntegrator
from repro.hydro.plan import build_hydro_plan
from repro.octree.fields import NFIELDS
from repro.octree.partition import sfc_partition
from tests.conftest import fill_gaussian, make_uniform_mesh
from tests.test_hydro_plan import make_state_mesh
from tests.test_shmrace import inject_scatter_overlap

pytestmark = pytest.mark.timeout(300)


def checks(violations):
    return sorted({v.check for v in violations})


class TestVerifyPartition:
    LOC = [0, 0, 1, 1]

    def test_clean_partition(self):
        runs = [[(0, 2, 0.5)], [(2, 4, 0.25)]]
        assert verify_partition(runs, 4, self.LOC) == []

    def test_overlap_flagged(self):
        runs = [[(0, 3, 0.5)], [(2, 4, 0.25)]]
        assert "partition-overlap" in checks(
            verify_partition(runs, 4, self.LOC)
        )

    def test_hole_flagged(self):
        runs = [[(0, 1, 0.5)], [(2, 4, 0.25)]]
        assert "partition-hole" in checks(
            verify_partition(runs, 4, self.LOC)
        )

    def test_bounds_flagged(self):
        runs = [[(0, 2, 0.5)], [(2, 5, 0.25)]]
        found = checks(verify_partition(runs, 4, self.LOC))
        assert "partition-bounds" in found
        assert "partition-hole" in found  # the bad run covers nothing

    def test_locality_mismatch_flagged(self):
        runs = [[(0, 3, 0.5)], [(3, 4, 0.25)]]
        assert "partition-locality" in checks(
            verify_partition(runs, 4, self.LOC)
        )


def _partitioned_mesh_and_plan(nprocs=2):
    """Mesh, bundle plan, and the per-slot rank list it was built for."""
    mesh, _ = make_state_mesh(levels=1, refine_keys=(0,))
    locality = sfc_partition(mesh, nprocs)
    leaves = sorted(mesh.leaves(), key=lambda nd: nd.key)
    m = mesh.n + 2 * mesh.ghost
    chunk = NFIELDS * m**3
    offsets = {leaf.key: i * chunk for i, leaf in enumerate(leaves)}
    plan = build_bundle_plan(mesh, offsets, locality)
    return mesh, plan, [locality[leaf.key] for leaf in leaves]


class TestVerifyBundlePlan:
    def test_real_plan_is_clean(self):
        mesh, plan, ranks = _partitioned_mesh_and_plan()
        assert verify_bundle_plan(mesh, plan, ranks) == []

    def test_injected_overlap_flagged(self):
        mesh, plan, ranks = _partitioned_mesh_and_plan()
        inject_scatter_overlap(plan)
        found = checks(verify_bundle_plan(mesh, plan, ranks))
        assert "bundle-dst-overlap" in found
        assert "bundle-dst-coverage" in found  # retargeted band lost its donor
        assert "bundle-dst-ownership" in found

    def test_interior_scatter_flagged(self):
        mesh, plan, ranks = _partitioned_mesh_and_plan()
        m = mesh.n + 2 * mesh.ghost
        g = mesh.ghost
        bundle = next(b for _, b in sorted(plan.bundles.items())
                      if b.copy_dst.size)
        # Retarget one scatter element into its own slot's interior.
        slot = int(bundle.copy_dst[0]) // (NFIELDS * m**3)
        interior = slot * NFIELDS * m**3 + ((g * m) + g) * m + g
        bundle.copy_dst[0] = interior
        found = checks(verify_bundle_plan(mesh, plan, ranks))
        assert "bundle-dst-interior" in found
        assert "bundle-dst-coverage" in found

    def test_out_of_bounds_flagged(self):
        mesh, plan, ranks = _partitioned_mesh_and_plan()
        bundle = next(b for _, b in sorted(plan.bundles.items())
                      if b.copy_dst.size)
        bundle.copy_dst[0] = 10**9
        found = checks(verify_bundle_plan(mesh, plan, ranks))
        assert "bundle-bounds" in found

    def test_foreign_source_flagged(self):
        mesh, plan, ranks = _partitioned_mesh_and_plan()
        m = mesh.n + 2 * mesh.ghost
        chunk = NFIELDS * m**3
        bundle = next(b for _, b in sorted(plan.bundles.items())
                      if b.copy_src.size)
        # Point one gather read at a slot the src rank does not own.
        foreign = next(i for i, rank in enumerate(ranks)
                       if rank != bundle.src_locality)
        bundle.copy_src[0] = foreign * chunk + (bundle.copy_src[0] % chunk)
        assert "bundle-src-ownership" in checks(
            verify_bundle_plan(mesh, plan, ranks)
        )


class TestVerifierMemory:
    def test_peak_bounded_on_the_level2_blast(self):
        """Bounds, region and ownership are checked chunk by chunk, and
        uniqueness and coverage against a byte map of the arena: the
        whole-plan pass stays within 4 MB where concatenating and sorting
        every bundle's targets took 19 MB."""
        from repro.scenarios.blast import sedov_blast

        mesh = sedov_blast(levels=2).mesh  # the plan holds it weakly
        plan = build_hydro_plan(mesh, nranks=2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert verify_process_plan(plan) == []
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, peak / 2**20


class TestVerifyFmmSplit:
    """The M2L split is the plan-time row blocks (``verify_fmm_blocks``);
    the overlap / gap / reorder cases live in ``test_m2l_blocking.py``."""

    def test_real_plan_shards_clean(self):
        mesh = make_uniform_mesh(2)
        fill_gaussian(mesh)
        plan = build_plan(mesh, 0.5)
        assert len(plan.near_blocks) > 1
        assert verify_fmm_blocks(plan) == []

    @staticmethod
    def _refined_l1():
        mesh = make_uniform_mesh(1)
        mesh.refine(sorted(mesh.leaf_keys())[0])
        fill_gaussian(mesh)
        return mesh

    def test_csr_inconsistency_flagged(self):
        plan = build_plan(self._refined_l1(), 0.5)
        assert plan.near_rows.size
        plan.near_indptr = plan.near_indptr[:-1]  # indptr too short
        assert "fmm-block-csr" in checks(verify_fmm_blocks(plan))

    def test_solver_refuses_bad_split(self):
        """FmmSolver verifies each plan's blocks once, before using them."""
        mesh = self._refined_l1()
        solver = FmmSolver()
        solver.solve(mesh)  # clean plan verifies and solves
        plan = solver.plan_for(mesh)
        assert plan.blocks_verified
        plan.near_blocks = plan.near_blocks[1:]  # drops the first segments
        plan.blocks_verified = False
        with pytest.raises(PlanVerificationError):
            solver.solve(mesh)


class TestVerifyFmmGathers:
    """``P2PClass.templates`` gathers with ``mode="clip"``; these proofs
    are what license it.  One seeded violation per property."""

    @staticmethod
    def _plan():
        mesh = make_uniform_mesh(1, n=4)
        mesh.refine(sorted(mesh.leaf_keys())[0])
        plan = build_plan(mesh, 0.5)
        assert len(plan.gather_store) == 3
        assert verify_fmm_gathers(plan) == []
        return plan

    def test_negative_index_flagged(self):
        plan = self._plan()
        cls = plan.p2p_classes[0]
        cls.gather[0, 0] = -1  # the shared matrix: every user is refused
        found = verify_fmm_blocks(plan)
        assert checks(found) == ["fmm-gather-bounds"]
        assert len(found) == sum(c.gather is cls.gather for c in plan.p2p_classes)

    def test_index_past_table_flagged(self):
        plan = self._plan()
        cls = plan.p2p_classes[-1]
        cls.gather = cls.gather.copy()
        cls.gather[-1, -1] = cls.tab.size
        found = verify_fmm_gathers(plan)
        assert checks(found) == ["fmm-gather-bounds"]
        assert str(cls.key) in found[0].detail

    def test_table_not_the_pattern_extent_flagged(self):
        plan = self._plan()
        cls = plan.p2p_classes[0]
        cls.tab = cls.tab[:, :, :-1]  # one offset plane short
        assert "fmm-gather-table" in checks(verify_fmm_gathers(plan))

    def test_shared_gather_with_other_pattern_flagged(self):
        plan = self._plan()
        levels = {c.key[0]: c for c in plan.p2p_classes}
        levels[1].gather = levels[0].gather  # same-level matrix, cross-level rel
        found = checks(verify_fmm_gathers(plan))
        assert "fmm-gather-pattern" in found

    def test_solver_refuses_out_of_range_gather(self):
        mesh = TestVerifyFmmSplit._refined_l1()
        solver = FmmSolver()
        plan = solver.plan_for(mesh)
        plan.p2p_classes[0].gather[0, 0] = plan.p2p_classes[0].tab.size
        with pytest.raises(PlanVerificationError, match="fmm-gather-bounds"):
            solver.solve(mesh)


class TestExecutorGate:
    def test_static_catch_of_seeded_race(self):
        """verify_plans=True refuses the injected plan before forking —
        the static half of the acceptance criterion."""
        mesh, eos = make_state_mesh(levels=1, refine_keys=(0,))
        ex = HydroIntegrator(mesh, eos, backend="process", nprocs=2).executor()
        ex.bundle_plan_hook = inject_scatter_overlap
        try:
            with pytest.raises(PlanVerificationError) as err:
                ex.ensure()
            found = {v.check for v in err.value.violations}
            assert "bundle-dst-overlap" in found
        finally:
            ex.close()

    def test_verified_executor_plan_clean(self):
        mesh, eos = make_state_mesh(levels=1, refine_keys=(0,))
        ex = HydroIntegrator(mesh, eos, backend="process", nprocs=2).executor()
        try:
            ex.ensure()
            assert verify_process_plan(ex.plan) == []
        finally:
            ex.close()

    def test_no_verify_escape_hatch(self):
        """--no-verify-plans must still fork and run the injected plan
        (the dynamic detector is then the only line of defence)."""
        mesh, eos = make_state_mesh(levels=1, refine_keys=(0,))
        ex = HydroIntegrator(
            mesh, eos, backend="process", nprocs=2, verify_plans=False,
        ).executor()
        ex.bundle_plan_hook = inject_scatter_overlap
        try:
            ex.ensure()  # no PlanVerificationError
            assert ex.engine.started
        finally:
            ex.close()


class TestScenarioPass:
    @pytest.mark.parametrize("nprocs", [2, 3])
    def test_mesh_plans_clean(self, nprocs):
        mesh, _ = make_state_mesh(levels=1, refine_keys=(0,))
        assert verify_mesh_plans(mesh, nprocs) == []


class TestRequireVerified:
    def test_empty_is_noop(self):
        require_verified([])

    def test_raises_with_all_violations(self):
        violations = [
            PlanViolation("partition-hole", "slot 3 unowned"),
            PlanViolation("bundle-dst-overlap", "element 7 double-written"),
        ]
        with pytest.raises(PlanVerificationError) as err:
            require_verified(violations)
        assert err.value.violations == tuple(violations)
        assert "partition-hole" in str(err.value)
        assert "bundle-dst-overlap" in str(err.value)
