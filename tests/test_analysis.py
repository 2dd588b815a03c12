"""Effect sets, race detection (dynamic + static), memory-space sanitizer.

The seeded-defect tests are the acceptance gate: a deliberately injected
race and a deliberate space violation must each be caught by *both* the
dynamic and the static checker, while the repo's known-good schedules
(one full blast driver step; the cached-plan FMM solver) must come back
with zero findings.
"""

import numpy as np
import pytest

from repro.amt.future import when_all
from repro.amt.locality import Runtime
from repro.analysis import (
    ANY,
    EffectRegistry,
    EffectSet,
    GraphTask,
    MemorySpaceViolation,
    RaceDetector,
    RaceError,
    Resource,
    check_graph,
    check_space_discipline,
    declare_effects,
    effects_of,
    sanitizer_mode,
)
from repro.kokkos import DeviceSpaceTag, View, deep_copy


# -- effect sets --------------------------------------------------------------


class TestResources:
    def test_concrete_overlap_is_equality(self):
        assert Resource(1, "U").overlaps(Resource(1, "U"))
        assert not Resource(1, "U").overlaps(Resource(2, "U"))
        assert not Resource(1, "U").overlaps(Resource(1, "phi"))
        assert not Resource(1, "U", "Host").overlaps(Resource(1, "U", "Device"))

    def test_wildcard_overlaps_everything(self):
        assert Resource(ANY, "moments").overlaps(Resource(7, "moments"))
        assert Resource(1, ANY).overlaps(Resource(1, "U"))
        assert not Resource(ANY, "moments").overlaps(Resource(7, "U"))

    def test_concreteness(self):
        assert Resource(1, "U").is_concrete
        assert not Resource(ANY, "U").is_concrete


class TestEffectSets:
    def test_read_read_commutes(self):
        a = EffectSet.make(reads=[(1, "U")])
        assert a.conflicts_with(a) == []

    def test_accum_accum_commutes(self):
        a = EffectSet.make(accums=[(1, "local")])
        assert a.conflicts_with(a) == []

    def test_write_conflicts_with_everything(self):
        w = EffectSet.make(writes=[(1, "U")])
        assert w.conflicts_with(EffectSet.make(reads=[(1, "U")]))
        assert w.conflicts_with(EffectSet.make(writes=[(1, "U")]))
        assert w.conflicts_with(EffectSet.make(accums=[(1, "U")]))

    def test_accum_conflicts_with_read(self):
        a = EffectSet.make(accums=[(1, "local")])
        assert a.conflicts_with(EffectSet.make(reads=[(1, "local")]))

    def test_disjoint_footprints_never_conflict(self):
        a = EffectSet.make(writes=[(1, "U")])
        b = EffectSet.make(writes=[(2, "U")], reads=[(2, "phi")])
        assert a.conflicts_with(b) == []

    def test_decorator_and_registry(self):
        @declare_effects(reads=[(0, "U")], writes=[(0, "phi")])
        def kernel():
            return 42

        assert kernel() == 42  # unchanged callable, no wrapper
        assert effects_of(kernel).reads == frozenset({Resource(0, "U")})

        registry = EffectRegistry()
        registry.register("fmm.p2p", lambda sg: EffectSet.make(writes=[(sg, "phi")]))
        assert "fmm.p2p" in registry
        assert registry.effects_for("fmm.p2p", 3).writes == frozenset({Resource(3, "phi")})
        with pytest.raises(ValueError):
            registry.register("fmm.p2p", lambda sg: EffectSet())


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
        loc = runtime.here()
        effects = EffectSet.make(writes=[(0, "U")])
        f1 = loc.async_(None, cost=1.0, name="writer-a", effects=effects)
        f2 = loc.async_(None, cost=1.0, name="writer-b", effects=effects)
        runtime.run_until_ready(when_all([f1, f2]))
        assert len(detector.findings) == 1
        finding = detector.findings[0]
        assert {finding.task_a, finding.task_b} == {"writer-a", "writer-b"}
        assert "no happens-before" in str(finding)

    def test_detector_flags_schedules_not_interleavings(self):
        """Even on ONE worker (forcibly serialised) the unordered pair is
        still a race: the ordering was luck, not a dependency."""
        runtime = Runtime(1, 1)
        detector = RaceDetector()
        runtime.install_observer(detector)
        effects = EffectSet.make(writes=[(0, "U")])
        f1 = runtime.here().async_(None, cost=1.0, name="a", effects=effects)
        f2 = runtime.here().async_(None, cost=1.0, name="b", effects=effects)
        runtime.run_until_ready(when_all([f1, f2]))
        assert len(detector.findings) == 1

    def test_dependency_edge_clears_the_race(self):
        runtime, detector = make_runtime_with_detector()
        loc = runtime.here()
        effects = EffectSet.make(writes=[(0, "U")])
        f1 = loc.async_(None, cost=1.0, name="a", effects=effects)
        f2 = loc.async_after([f1], None, cost=1.0, name="b", effects=effects)
        runtime.run_until_ready(f2)
        assert detector.findings == []
        assert detector.tasks_checked == 2

    def test_when_all_barrier_transports_causality(self):
        """stage writers -> when_all -> next-stage writers: ordered."""
        runtime, detector = make_runtime_with_detector()
        loc = runtime.here()
        stage1 = [
            loc.async_(None, cost=1.0, name=f"s1.{i}",
                       effects=EffectSet.make(writes=[(i, "U")]))
            for i in range(4)
        ]
        barrier = when_all(stage1)
        stage2 = [
            loc.async_after([barrier], None, cost=1.0, name=f"s2.{i}",
                            effects=EffectSet.make(writes=[(i, "U")]))
            for i in range(4)
        ]
        runtime.run_until_ready(when_all(stage2))
        assert detector.findings == []

    def test_unordered_accums_commute(self):
        runtime, detector = make_runtime_with_detector()
        loc = runtime.here()
        effects = EffectSet.make(accums=[(0, "local")])
        fs = [loc.async_(None, cost=1.0, name=f"m2l.{i}", effects=effects)
              for i in range(4)]
        runtime.run_until_ready(when_all(fs))
        assert detector.findings == []

    def test_accum_vs_unordered_reader_is_a_race(self):
        runtime, detector = make_runtime_with_detector()
        loc = runtime.here()
        f1 = loc.async_(None, cost=1.0, name="acc",
                        effects=EffectSet.make(accums=[(0, "local")]))
        f2 = loc.async_(None, cost=1.0, name="reader",
                        effects=EffectSet.make(reads=[(0, "local")]))
        runtime.run_until_ready(when_all([f1, f2]))
        assert len(detector.findings) == 1

    def test_fork_edge_orders_child_with_parent(self):
        """A task spawned inside a running payload inherits its clock."""
        runtime, detector = make_runtime_with_detector()
        loc = runtime.here()
        effects = EffectSet.make(writes=[(0, "U")])
        child = []

        def parent_body():
            child.append(loc.async_(None, cost=1.0, name="child", effects=effects))

        parent = loc.async_(parent_body, cost=1.0, name="parent", effects=effects)
        runtime.run_until_ready(parent)
        runtime.run_until_ready(child[0])
        assert detector.findings == []

    def test_raise_on_finding(self):
        runtime, detector = make_runtime_with_detector(raise_on_finding=True)
        loc = runtime.here()
        effects = EffectSet.make(writes=[(0, "U")])
        with pytest.raises(RaceError):
            # The scheduler may start tasks as soon as a worker is free, so
            # the raise can surface at submission or while running.
            loc.async_(None, cost=1.0, name="a", effects=effects)
            loc.async_(None, cost=1.0, name="b", effects=effects)
            runtime.run(max_events=100)

    def test_undeclared_tasks_propagate_causality_unchecked(self):
        runtime, detector = make_runtime_with_detector()
        loc = runtime.here()
        effects = EffectSet.make(writes=[(0, "U")])
        f1 = loc.async_(None, cost=1.0, name="w1", effects=effects)
        mid = loc.async_after([f1], None, cost=1.0, name="plain")  # no effects
        f2 = loc.async_after([mid], None, cost=1.0, name="w2", effects=effects)
        runtime.run_until_ready(f2)
        assert detector.findings == []
        assert detector.tasks_checked == 2
        assert detector.tasks_seen == 3


# -- static checking ----------------------------------------------------------


class TestStaticChecker:
    def seeded_race_graph(self, with_edge):
        w = EffectSet.make(writes=[(0, "U")])
        return [
            GraphTask(id=0, name="a", effects=w),
            GraphTask(id=1, name="b", deps=(0,) if with_edge else (), effects=w),
        ]

    def test_seeded_race_detected_statically(self):
        findings = check_graph(self.seeded_race_graph(with_edge=False))
        assert len(findings) == 1
        assert findings[0].kind == "race"

    def test_edge_clears_static_race(self):
        assert check_graph(self.seeded_race_graph(with_edge=True)) == []

    def test_transitive_ordering(self):
        w = EffectSet.make(writes=[(0, "U")])
        nodes = [
            GraphTask(id=0, name="a", effects=w),
            GraphTask(id=1, name="mid", deps=(0,)),  # effect-free barrier
            GraphTask(id=2, name="b", deps=(1,), effects=w),
        ]
        assert check_graph(nodes) == []

    def test_diamond_siblings_race(self):
        w = EffectSet.make(writes=[(0, "U")])
        nodes = [
            GraphTask(id=0, name="root", effects=EffectSet.make(reads=[(0, "U")])),
            GraphTask(id=1, name="left", deps=(0,), effects=w),
            GraphTask(id=2, name="right", deps=(0,), effects=w),
        ]
        findings = check_graph(nodes)
        assert len(findings) == 1
        assert {findings[0].task_a, findings[0].task_b} == {"left", "right"}

    def test_non_topological_emission_rejected(self):
        nodes = [GraphTask(id=0, name="a", deps=(1,)), GraphTask(id=1, name="b")]
        with pytest.raises(ValueError):
            check_graph(nodes)

    def test_seeded_space_violation_detected_statically(self):
        """Host-executing node touching a Device resource — the seeded
        space violation, static half."""
        nodes = [
            GraphTask(
                id=0, name="host-kernel", exec_space="Host",
                effects=EffectSet.make(writes=[Resource(0, "U", "Device")]),
            )
        ]
        findings = check_space_discipline(nodes)
        assert len(findings) == 1
        assert findings[0].kind == "space-mismatch"
        assert check_graph(nodes) == findings  # check_graph folds it in

    def test_deep_copy_is_the_sanctioned_crossing(self):
        nodes = [
            GraphTask(
                id=0, name="h2d", exec_space="Host", kind="deep_copy",
                effects=EffectSet.make(writes=[Resource(0, "U", "Device")],
                                       reads=[Resource(0, "U", "Host")]),
            )
        ]
        assert check_space_discipline(nodes) == []


# -- memory-space sanitizer ---------------------------------------------------


class TestSpaceSanitizer:
    def test_seeded_space_violation_detected_dynamically(self):
        """Host access to a device view — the seeded violation, dynamic half."""
        dev = View("rho", (4,), space=DeviceSpaceTag)
        with sanitizer_mode():
            with pytest.raises(MemorySpaceViolation):
                dev[0]
            with pytest.raises(MemorySpaceViolation):
                dev[0] = 1.0
            with pytest.raises(MemorySpaceViolation):
                dev.data

    def test_collect_mode_reports_without_raising(self):
        dev = View("rho", (4,), space=DeviceSpaceTag)
        with sanitizer_mode(collect=True) as findings:
            _ = dev.nbytes  # metadata stays legal
            dev[1] = 2.0
            np.asarray(dev.data)
        assert [f.op for f in findings] == ["write", "raw-data"]
        assert all(f.label == "rho" and f.space == "Device" for f in findings)

    def test_host_views_and_deep_copy_are_clean(self):
        host = View("h", (4,))
        dev = View("d", (4,), space=DeviceSpaceTag)
        with sanitizer_mode(collect=True) as findings:
            host[0] = 1.0
            _ = host.data
            deep_copy(dev, host)
            deep_copy(host, dev)
        assert findings == []

    def test_checks_off_outside_sanitizer_mode(self):
        dev = View("rho", (4,), space=DeviceSpaceTag)
        dev[0] = 1.0  # legal: simulation views are host arrays in truth
        assert dev[0] == 1.0


# -- known-good schedules: zero findings --------------------------------------


class TestKnownGoodSchedules:
    def test_step_graph_statically_race_free(self):
        from repro.distsim import RunConfig, TaskGraphSimulator
        from repro.machines import FUGAKU
        from repro.scenarios.spec import ScenarioSpec

        spec = ScenarioSpec(name="clean", n_subgrids=27, max_level=3)
        for nodes in (1, 2):
            sim = TaskGraphSimulator(spec, RunConfig(machine=FUGAKU, nodes=nodes))
            assert sim.static_check() == []

    def test_step_graph_dynamically_race_free(self):
        from repro.distsim import RunConfig, TaskGraphSimulator
        from repro.machines import FUGAKU
        from repro.scenarios.spec import ScenarioSpec

        spec = ScenarioSpec(name="clean", n_subgrids=27, max_level=3)
        sim = TaskGraphSimulator(spec, RunConfig(machine=FUGAKU, nodes=2))
        detector = RaceDetector(raise_on_finding=True)
        result = sim.run_step(detector=detector)
        assert detector.findings == []
        assert detector.tasks_checked == result.tasks  # every pool task declared

    def test_blast_driver_step_sanitized_zero_findings(self):
        """The task graph a driver step of the blast scenario is priced
        with, built from the live workload: static and dynamic race checks,
        zero false positives."""
        from repro.core import OctoTigerSim
        from repro.distsim import RunConfig, TaskGraphSimulator
        from repro.machines import FUGAKU
        from repro.scenarios import sedov_blast

        scenario = sedov_blast(levels=2)
        sim = OctoTigerSim(
            scenario.mesh, eos=scenario.eos,
            config=RunConfig(machine=FUGAKU, nodes=2),
        )
        assert sim.step().dt > 0
        graph = TaskGraphSimulator(sim.spec, sim.config)
        assert graph.static_check() == []
        detector = RaceDetector()
        result = graph.run_step(detector=detector)
        assert detector.findings == []
        assert detector.tasks_checked == result.tasks > 0

    def test_fmm_plan_path_sanitized_and_exact(self):
        """The cached-traversal-plan FMM path (cold build + warm reuse)
        under the space sanitizer: zero findings, numerics unchanged."""
        from repro.gravity.fmm import FmmSolver
        from tests.conftest import fill_gaussian, make_uniform_mesh

        mesh = make_uniform_mesh(levels=1)
        fill_gaussian(mesh)
        solver = FmmSolver(order=2)
        with sanitizer_mode(collect=True) as findings:
            cold = solver.solve(mesh)   # builds + caches the plan
            warm = solver.solve(mesh)   # reuses it
            reference = solver.solve_reference(mesh)
        assert findings == []
        for key in cold.phi:
            np.testing.assert_allclose(warm.phi[key], cold.phi[key], rtol=0, atol=0)
            np.testing.assert_allclose(cold.phi[key], reference.phi[key],
                                       rtol=1e-12, atol=1e-12)
