"""Effect rows and race detection (dynamic + static).

The seeded-defect tests are the acceptance gate: a race seeded into the
step program — an overlapping bundle scatter, or a dropped ghost
dependency of the DES interpreter — must be caught by the static
op-program proof and by the DES race detector, while the repo's
known-good schedules (real plans, DES driver steps) come back with zero
findings and the cached-plan FMM solver stays exact.
"""

import numpy as np
import pytest

from repro.amt.future import when_all
from repro.amt.locality import Runtime
from repro.analysis import (
    RaceDetector,
    RaceError,
    verify_op_program,
)
from repro.analysis.effects import (
    MODE_ACCUM,
    MODE_READ,
    MODE_WRITE,
    REGION_ALL,
    REGION_GHOST,
    REGION_INTERIOR,
    SEG_FIELDS,
    SEG_FLUX,
    conflict_mask,
    slot_range_rows,
)
from repro.analysis.shmrace import BEFORE_NOTE, concurrent_conflicts
from repro.core import distributed
from repro.core.distributed import DistributedHydroDriver
from repro.distsim import RunConfig
from repro.hydro.plan import build_hydro_plan
from repro.machines import FUGAKU
from tests.test_hydro_plan import make_state_mesh
from tests.test_shmrace import inject_scatter_overlap


# -- effect rows --------------------------------------------------------------


def row(slot, mode=MODE_WRITE, segment=SEG_FIELDS, region=REGION_INTERIOR):
    """The effect row of one leaf slot."""
    return slot_range_rows(slot, slot + 1, mode, segment, region)


def conflicts(a, b):
    return bool(conflict_mask(a, b).any())


class TestResources:
    def test_concrete_overlap_is_equality(self):
        assert conflicts(row(1), row(1))
        assert not conflicts(row(1), row(2))
        assert not conflicts(row(1), row(1, segment=SEG_FLUX))
        assert not conflicts(row(1), row(1, region=REGION_GHOST))
        # Slot ranges alias exactly where they intersect.
        assert conflicts(slot_range_rows(0, 4, MODE_WRITE, SEG_FIELDS),
                         slot_range_rows(3, 8, MODE_WRITE, SEG_FIELDS))
        assert not conflicts(slot_range_rows(0, 4, MODE_WRITE, SEG_FIELDS),
                             slot_range_rows(4, 8, MODE_WRITE, SEG_FIELDS))

    def test_wildcard_overlaps_everything(self):
        everything = row(7, region=REGION_ALL)
        assert conflicts(everything, row(7, region=REGION_INTERIOR))
        assert conflicts(row(7, region=REGION_GHOST), everything)
        assert not conflicts(everything, row(7, segment=SEG_FLUX))
        assert not conflicts(everything, row(8))


class TestEffectSets:
    def test_read_read_commutes(self):
        a = row(1, MODE_READ)
        assert not conflicts(a, a)

    def test_accum_accum_commutes(self):
        a = row(1, MODE_ACCUM)
        assert not conflicts(a, a)

    def test_write_conflicts_with_everything(self):
        w = row(1, MODE_WRITE)
        assert conflicts(w, row(1, MODE_READ))
        assert conflicts(w, row(1, MODE_WRITE))
        assert conflicts(w, row(1, MODE_ACCUM))
        assert conflicts(row(1, MODE_READ), w)

    def test_accum_conflicts_with_read(self):
        a = row(1, MODE_ACCUM)
        assert conflicts(a, row(1, MODE_READ))

    def test_disjoint_footprints_never_conflict(self):
        a = row(1, MODE_WRITE)
        b = np.vstack([row(2, MODE_WRITE), row(1, MODE_READ, SEG_FLUX)])
        assert not conflicts(a, b)
        assert conflict_mask(a, b).shape == (1, 2)


# -- dynamic race detection ---------------------------------------------------


def make_runtime_with_detector(**kwargs):
    runtime = Runtime(1, 2)
    detector = RaceDetector(**kwargs)
    runtime.install_observer(detector)
    return runtime, detector


class TestDynamicDetector:
    def test_seeded_race_detected(self):
        """Two unordered writers of the same resource — the seeded race."""
        runtime, detector = make_runtime_with_detector()
        loc = runtime.localities[0]
        effects = row(0)
        f1 = loc.async_sharded([], None, cost=1.0, name="writer-a", effects=effects)
        f2 = loc.async_sharded([], None, cost=1.0, name="writer-b", effects=effects)
        runtime.run_until_ready(when_all([f1, f2]))
        assert len(detector.findings) == 1
        finding = detector.findings[0]
        assert {finding.task_a, finding.task_b} == {"writer-a", "writer-b"}
        assert finding.resource_a == "fields[0:1) interior"
        assert "no happens-before" in str(finding)

    def test_detector_flags_schedules_not_interleavings(self):
        """Even on ONE worker (forcibly serialised) the unordered pair is
        still a race: the ordering was luck, not a dependency."""
        runtime = Runtime(1, 1)
        detector = RaceDetector()
        runtime.install_observer(detector)
        effects = row(0)
        loc = runtime.localities[0]
        f1 = loc.async_sharded([], None, cost=1.0, name="a", effects=effects)
        f2 = loc.async_sharded([], None, cost=1.0, name="b", effects=effects)
        runtime.run_until_ready(when_all([f1, f2]))
        assert len(detector.findings) == 1

    def test_dependency_edge_clears_the_race(self):
        runtime, detector = make_runtime_with_detector()
        loc = runtime.localities[0]
        effects = row(0)
        f1 = loc.async_sharded([], None, cost=1.0, name="a", effects=effects)
        f2 = loc.async_after([f1], None, cost=1.0, name="b", effects=effects)
        runtime.run_until_ready(f2)
        assert detector.findings == []
        assert detector.tasks_checked == 2

    def test_when_all_barrier_transports_causality(self):
        """stage writers -> when_all -> next-stage writers: ordered."""
        runtime, detector = make_runtime_with_detector()
        loc = runtime.localities[0]
        stage1 = [
            loc.async_sharded([], None, cost=1.0, name=f"s1.{i}", effects=row(i))
            for i in range(4)
        ]
        barrier = when_all(stage1)
        stage2 = [
            loc.async_after([barrier], None, cost=1.0, name=f"s2.{i}",
                            effects=row(i))
            for i in range(4)
        ]
        runtime.run_until_ready(when_all(stage2))
        assert detector.findings == []

    def test_unordered_accums_commute(self):
        runtime, detector = make_runtime_with_detector()
        loc = runtime.localities[0]
        effects = row(0, MODE_ACCUM)
        fs = [loc.async_sharded([], None, cost=1.0, name=f"m2l.{i}", effects=effects)
              for i in range(4)]
        runtime.run_until_ready(when_all(fs))
        assert detector.findings == []

    def test_accum_vs_unordered_reader_is_a_race(self):
        runtime, detector = make_runtime_with_detector()
        loc = runtime.localities[0]
        f1 = loc.async_sharded([], None, cost=1.0, name="acc", effects=row(0, MODE_ACCUM))
        f2 = loc.async_sharded([], None, cost=1.0, name="reader",
                        effects=row(0, MODE_READ))
        runtime.run_until_ready(when_all([f1, f2]))
        assert len(detector.findings) == 1

    def test_fork_edge_orders_child_with_parent(self):
        """A task spawned inside a running payload inherits its clock."""
        runtime, detector = make_runtime_with_detector()
        loc = runtime.localities[0]
        effects = row(0)
        child = []

        def parent_body():
            child.append(loc.async_sharded([], None, cost=1.0, name="child", effects=effects))

        parent = loc.async_sharded([], parent_body, cost=1.0, name="parent", effects=effects)
        runtime.run_until_ready(parent)
        runtime.run_until_ready(child[0])
        assert detector.findings == []

    def test_raise_on_finding(self):
        runtime, detector = make_runtime_with_detector(raise_on_finding=True)
        loc = runtime.localities[0]
        effects = row(0)
        with pytest.raises(RaceError):
            # The scheduler may start tasks as soon as a worker is free, so
            # the raise can surface at submission or while running.
            loc.async_sharded([], None, cost=1.0, name="a", effects=effects)
            loc.async_sharded([], None, cost=1.0, name="b", effects=effects)
            runtime.run(max_events=100)

    def test_undeclared_tasks_propagate_causality_unchecked(self):
        runtime, detector = make_runtime_with_detector()
        loc = runtime.localities[0]
        effects = row(0)
        f1 = loc.async_sharded([], None, cost=1.0, name="w1", effects=effects)
        mid = loc.async_after([f1], None, cost=1.0, name="plain")  # no effects
        f2 = loc.async_after([mid], None, cost=1.0, name="w2", effects=effects)
        runtime.run_until_ready(f2)
        assert detector.findings == []
        assert detector.tasks_checked == 2
        assert detector.tasks_seen == 3


class TestOnePredicate:
    def test_des_and_shm_verdicts_agree(self):
        """Seeded random row pairs: two unordered DES tasks race exactly
        when the same rows, as same-epoch before-note events of two
        ranks, race in the shm replay."""
        rng = np.random.default_rng(33)

        def random_rows():
            k = int(rng.integers(1, 4))
            lo = rng.integers(0, 6, k)
            return np.column_stack([
                rng.integers(0, 3, k), rng.integers(0, 2, k),
                lo, lo + rng.integers(1, 3, k), rng.integers(0, 3, k),
            ]).astype(np.int64)

        def events(rows):
            return np.column_stack([
                np.ones(len(rows)), rows, np.full(len(rows), BEFORE_NOTE),
            ]).astype(np.int64)

        verdicts = []
        for _ in range(200):
            a, b = random_rows(), random_rows()
            runtime, detector = make_runtime_with_detector()
            loc = runtime.localities[0]
            runtime.run_until_ready(when_all([
                loc.async_sharded([], None, cost=1.0, name="a", effects=a),
                loc.async_sharded([], None, cost=1.0, name="b", effects=b),
            ]))
            shm = concurrent_conflicts(0, events(a), 1, events(b), set())
            assert len(detector.findings) == (1 if shm else 0)
            verdicts.append(bool(shm))
        assert 0 < sum(verdicts) < len(verdicts)


# -- static checking: the op-program proof ------------------------------------


def two_rank_plan(seed_race=False):
    """A refined (reflux-carrying) mesh's plan over two ranks; the mesh is
    returned too, since the plan only holds it weakly."""
    mesh, _ = make_state_mesh(levels=1, refine_keys=(0,))
    plan = build_hydro_plan(mesh, nranks=2)
    if seed_race:
        inject_scatter_overlap(plan.ghosts)
    return mesh, plan


class TestStaticChecker:
    def test_seeded_race_detected_statically(self):
        _mesh, plan = two_rank_plan(seed_race=True)
        findings = verify_op_program(plan)
        assert findings
        assert {v.check for v in findings} == {"op-program-race"}

    def test_edge_clears_static_race(self, monkeypatch):
        """The fused round's donor reads and interior writes are ordered by
        the ghosts -> go handshake alone: without it the proof fails."""
        mesh, _ = make_state_mesh(levels=1)  # no reflux: every stage fuses
        plan = build_hydro_plan(mesh, nranks=2)
        assert verify_op_program(plan) == []
        from repro.analysis import planverify

        monkeypatch.setattr(
            planverify, "handshake_positions", lambda names: [0] * len(names)
        )
        findings = verify_op_program(plan)
        assert findings
        # Donor-interior reads against interior writes, in a fused round.
        assert all("read" in v.detail and "write" in v.detail for v in findings)


# -- the DES interpreter's race detector -------------------------------------


class TestDesInterpreter:
    def test_seeded_scatter_overlap_flagged(self):
        mesh, eos = make_state_mesh(levels=1, refine_keys=(0,))
        driver = des_driver(mesh, eos)
        inject_scatter_overlap(
            driver.plans.plan_for(mesh, driver.registry, nranks=2).ghosts
        )
        driver.step(1e-4)
        assert driver.race_findings
        assert all(f.kind == "race" for f in driver.race_findings)

    @pytest.mark.parametrize("drop", [False, True], ids=["control", "dropped"])
    def test_dropped_ghost_dependency_flagged(self, monkeypatch, drop):
        """Without its wait on the bundles into its rank, an rhs reads
        ghost bands an unpack may still be writing."""
        if drop:
            monkeypatch.delitem(distributed.CROSS_RANK_WAITS, "into")
        mesh, eos = make_state_mesh(levels=1, refine_keys=(0,))
        driver = des_driver(mesh, eos)
        driver.step(1e-4)
        if drop:
            assert any(
                "unpack" in f.task_a + f.task_b and "rhs" in f.task_a + f.task_b
                for f in driver.race_findings
            )
        else:
            assert driver.race_findings == []


# -- known-good schedules: zero findings --------------------------------------


def des_driver(mesh, eos, nodes=2):
    return DistributedHydroDriver(
        mesh, eos, config=RunConfig(machine=FUGAKU, nodes=nodes)
    )


class TestKnownGoodSchedules:
    def test_step_graph_statically_race_free(self):
        for refine_keys in ((), (0, 3)):
            mesh, _ = make_state_mesh(levels=1, refine_keys=refine_keys)
            for nranks in (1, 2, 3):
                plan = build_hydro_plan(mesh, nranks=nranks)
                assert verify_op_program(plan) == []

    def test_step_graph_dynamically_race_free(self):
        mesh, eos = make_state_mesh(levels=1, refine_keys=(0,))
        driver = des_driver(mesh, eos)
        driver.step(1e-4)
        driver.step(1e-4)
        assert driver.race_findings == []
        assert driver.race_events > 0

    def test_blast_driver_step_sanitized_zero_findings(self):
        """A driver step of the blast scenario, and the same step program
        on two DES localities and (statically) on two ranks: zero
        findings."""
        from repro.core import OctoTigerSim
        from repro.core.crosscheck import clone_mesh
        from repro.scenarios import sedov_blast

        scenario = sedov_blast(levels=2)
        sim = OctoTigerSim(
            scenario.mesh, eos=scenario.eos,
            config=RunConfig(machine=FUGAKU, nodes=2),
        )
        assert sim.step().dt > 0
        assert verify_op_program(build_hydro_plan(sim.mesh, nranks=2)) == []
        driver = des_driver(clone_mesh(sim.mesh), scenario.eos)
        driver.step(sim.integrator.timestep())
        assert driver.race_findings == []
        assert driver.race_events > 0

    def test_fmm_plan_path_sanitized_and_exact(self):
        """The cached-traversal-plan FMM path: the cold build and the warm
        reuse agree bit for bit, and both match the per-node oracle."""
        from repro.gravity.fmm import FmmSolver
        from tests.conftest import fill_gaussian, make_uniform_mesh
        from tests.oracles.fmm import solve_reference

        mesh = make_uniform_mesh(levels=1)
        fill_gaussian(mesh)
        solver = FmmSolver(order=2)
        cold = solver.solve(mesh)   # builds + caches the plan
        warm = solver.solve(mesh)   # reuses it
        reference = solve_reference(solver, mesh)
        for key in cold.phi:
            np.testing.assert_allclose(warm.phi[key], cold.phi[key], rtol=0, atol=0)
            np.testing.assert_allclose(cold.phi[key], reference.phi[key],
                                       rtol=1e-12, atol=1e-12)
