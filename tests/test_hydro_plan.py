"""The stacked hydro plan: bit-equivalence with the per-leaf reference,
one-rank ghost-bundle fidelity, cache invalidation, and the folded-in CFL
cache.

``HydroIntegrator.step`` (the step program over the cached plan) is designed
to be *bit-identical* to ``step_reference`` (every optimization preserves
IEEE semantics), so the equivalence assertions here use exact array
equality, not a tolerance.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hydro import HydroIntegrator, IdealGasEOS, build_hydro_plan
from repro.hydro.timestep import global_timestep
from repro.octree import AmrMesh, Field

from tests.oracles.ghost import fill_all_ghosts
from tests.oracles.hydro_step import step_reference


def make_state_mesh(levels=1, n=8, refine_keys=(), seed=0, mach=0.0):
    """A smooth randomized state (optionally supersonic along z)."""
    rng = np.random.default_rng(seed)
    mesh = AmrMesh(n=n, ghost=2, domain_size=1.0)
    for _ in range(levels):
        for key in list(mesh.leaf_keys()):
            mesh.refine(key)
    for k in refine_keys:
        keys = sorted(mesh.leaf_keys())
        mesh.refine(keys[k % len(keys)])
    eos = IdealGasEOS()
    for leaf in mesh.leaves():
        x, y, z = leaf.cell_centers()
        rho = (
            1.0
            + 0.3 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
            + 0.05 * rng.random(x.shape)
        )
        p = 1.0 + 0.2 * np.cos(2 * np.pi * z)
        eint = p / (eos.gamma - 1.0)
        vx = 0.1 * np.sin(2 * np.pi * y) + mach * np.sin(2 * np.pi * z)
        leaf.subgrid.set_interior(Field.RHO, rho)
        leaf.subgrid.set_interior(Field.SX, rho * vx)
        leaf.subgrid.set_interior(Field.EGAS, eint + 0.5 * rho * vx**2)
        leaf.subgrid.set_interior(Field.TAU, eos.tau_from_eint(eint))
        leaf.subgrid.set_interior(Field.FRAC1, 0.4 * rho)
        leaf.subgrid.set_interior(Field.FRAC2, 0.6 * rho)
    mesh.restrict_all()
    return mesh, eos


def fake_gravity(mesh, out):
    """A gravity callback: a linear field, into the slot-ordered stack."""
    for slot, leaf in enumerate(sorted(mesh.leaves(), key=lambda nd: nd.key)):
        x, y, z = leaf.cell_centers()
        out[slot] = np.stack([-0.1 * x, -0.1 * y, -0.05 * z])


def snapshot(mesh):
    return {k: nd.subgrid.data.copy() for k, nd in mesh.nodes.items()}


def assert_meshes_identical(mesh_a, mesh_b):
    assert set(mesh_a.nodes) == set(mesh_b.nodes)
    for key in mesh_a.nodes:
        a = mesh_a.nodes[key].subgrid.data
        b = mesh_b.nodes[key].subgrid.data
        assert np.array_equal(a, b), f"state diverged at node {key}"


def run_pair(steps=3, **cfg):
    """Advance twin meshes through ``step`` and ``step_reference``."""
    mesh_kw = {
        k: cfg.pop(k) for k in ("levels", "n", "refine_keys", "mach") if k in cfg
    }
    mesh_a, eos = make_state_mesh(**mesh_kw)
    mesh_b, _ = make_state_mesh(**mesh_kw)
    a = HydroIntegrator(mesh_a, eos, **cfg)
    b = HydroIntegrator(mesh_b, eos, **cfg)
    for _ in range(steps):
        dt_a = a.step()
        dt_b = step_reference(b)
        assert dt_a == dt_b
    return a, b, mesh_a, mesh_b


class TestEquivalence:
    def test_uniform_level1_bitwise(self):
        a, b, mesh_a, mesh_b = run_pair(levels=1)
        assert_meshes_identical(mesh_a, mesh_b)

    def test_adaptive_mesh_bitwise(self):
        a, b, mesh_a, mesh_b = run_pair(levels=1, refine_keys=(0, 3))
        assert_meshes_identical(mesh_a, mesh_b)
        assert a.faces_refluxed == b.faces_refluxed > 0

    def test_gravity_and_rotating_frame_bitwise(self):
        a, b, mesh_a, mesh_b = run_pair(
            levels=1,
            refine_keys=(2,),
            gravity=fake_gravity,
            omega=0.5,
        )
        assert_meshes_identical(mesh_a, mesh_b)

    def test_supersonic_bitwise(self):
        # Mach 4 along z: supersonic faces make the HLL upwind selects
        # (s_left >= 0 / s_right <= 0) actually fire in the stacked kernels.
        a, b, mesh_a, mesh_b = run_pair(levels=1, refine_keys=(4,), mach=4.0)
        assert_meshes_identical(mesh_a, mesh_b)

    def test_small_subgrids_bitwise(self):
        a, b, mesh_a, mesh_b = run_pair(levels=1, n=4, refine_keys=(0,))
        assert_meshes_identical(mesh_a, mesh_b)


class TestOneRankGhostBundle:
    def test_vectorized_fill_matches_reference(self):
        mesh_a, _ = make_state_mesh(levels=1, refine_keys=(0, 3))
        mesh_b, _ = make_state_mesh(levels=1, refine_keys=(0, 3))
        plan = build_hydro_plan(mesh_a)
        # Scribble over every ghost band so stale values cannot pass.
        for mesh in (mesh_a, mesh_b):
            g, n = mesh.ghost, mesh.n
            for leaf in mesh.leaves():
                data = leaf.subgrid.data
                interior = data[:, g : g + n, g : g + n, g : g + n].copy()
                data[:] = -99.0
                data[:, g : g + n, g : g + n, g : g + n] = interior
        assert list(plan.ghosts.bundles) == [(0, 0)]
        plan.ghosts.bundles[(0, 0)].apply(plan.arena)
        fill_all_ghosts(mesh_b)
        assert_meshes_identical(mesh_a, mesh_b)

    def test_face_counts_cover_every_face(self):
        mesh, _ = make_state_mesh(levels=1, refine_keys=(2,))
        plan = build_hydro_plan(mesh)
        total = sum(plan.ghosts.face_counts.values())
        assert total == 6 * len(mesh.leaves())
        assert plan.ghosts.face_counts["fine"] > 0
        assert plan.ghosts.face_counts["coarse"] > 0


class TestPlanCache:
    def test_plan_reused_across_steps(self):
        mesh, eos = make_state_mesh(levels=1)
        integ = HydroIntegrator(mesh, eos)
        integ.step(1e-4)
        plan = integ.plan_for()
        integ.step(1e-4)
        assert integ.plan_for() is plan

    def test_plan_invalidated_by_refine(self):
        mesh, eos = make_state_mesh(levels=1)
        integ = HydroIntegrator(mesh, eos)
        integ.step(1e-4)
        plan = integ.plan_for()
        mesh.refine(sorted(mesh.leaf_keys())[0])
        assert not plan.matches(mesh)
        integ.step(1e-4)
        assert integ.plan_for() is not plan

    def test_plan_invalidated_by_derefine(self):
        mesh, eos = make_state_mesh(levels=1, refine_keys=(0,))
        integ = HydroIntegrator(mesh, eos)
        integ.step(1e-4)
        plan = integ.plan_for()
        parents = [
            key
            for key, node in sorted(mesh.nodes.items())
            if not node.is_leaf
            and all(mesh.nodes[k].is_leaf for k in node.children_keys())
        ]
        mesh.derefine(parents[-1])
        assert not plan.matches(mesh)

    def test_plan_invalidated_by_readoption(self):
        # A second plan adopting the same mesh rebinds leaf storage away
        # from the first plan's arena: the view-identity check must fail.
        mesh, eos = make_state_mesh(levels=1)
        plan_a = build_hydro_plan(mesh)
        assert plan_a.matches(mesh)
        build_hydro_plan(mesh)
        assert not plan_a.matches(mesh)

    def test_adoption_preserves_field_values(self):
        mesh, _ = make_state_mesh(levels=1, refine_keys=(3,))
        before = snapshot(mesh)
        plan = build_hydro_plan(mesh)
        for key, data in before.items():
            assert np.array_equal(mesh.nodes[key].subgrid.data, data)
        # Leaf views alias the arena: writes through either side are shared.
        leaf = mesh.leaves()[0]
        leaf.subgrid.data[Field.RHO] += 1.0
        slot = plan.slot[leaf.key]
        assert plan.views[slot] is leaf.subgrid.data

    def test_invalidate_plan_forces_rebuild(self):
        mesh, eos = make_state_mesh(levels=1)
        integ = HydroIntegrator(mesh, eos)
        integ.step(1e-4)
        plan = integ.plan_for()
        integ.invalidate_plan()
        integ.step(1e-4)
        assert integ.plan_for() is not plan


class TestCflSignalCache:
    def test_cached_dt_equals_recomputed(self):
        mesh, eos = make_state_mesh(levels=1, refine_keys=(1,))
        integ = HydroIntegrator(mesh, eos)
        integ.step()
        cached = integ.timestep()
        recomputed = global_timestep(mesh, eos)
        assert cached == recomputed

    def test_cache_dropped_on_regrid(self):
        mesh, eos = make_state_mesh(levels=1)
        integ = HydroIntegrator(mesh, eos)
        integ.step()
        mesh.refine(sorted(mesh.leaf_keys())[0])
        assert integ.timestep() == global_timestep(mesh, eos)


class TestRefluxSkip:
    def test_uniform_meshes_skip_flux_collection(self):
        # Satellite: nothing to reflux on uniform meshes.  The program
        # skips the boundary-flux copies whenever the plan has no fine
        # faces (any uniform mesh); the reference skips on a single-root
        # mesh (max_level() == 0).  Both must count zero refluxed faces.
        for levels in (0, 1):
            for step in (HydroIntegrator.step, step_reference):
                mesh, eos = make_state_mesh(levels=levels)
                integ = HydroIntegrator(mesh, eos)
                step(integ, 1e-4)
                assert integ.faces_refluxed == 0

    def test_single_root_mesh_bitwise(self):
        a, b, mesh_a, mesh_b = run_pair(levels=0)
        assert_meshes_identical(mesh_a, mesh_b)

    def test_refined_mesh_refluxes(self):
        mesh, eos = make_state_mesh(levels=1, refine_keys=(0,))
        integ = HydroIntegrator(mesh, eos)
        integ.step(1e-4)
        assert integ.faces_refluxed > 0


class TestProfilingCounters:
    def test_phase_timers_recorded(self):
        from repro.profiling.apex import CounterRegistry

        mesh, eos = make_state_mesh(levels=1)
        integ = HydroIntegrator(mesh, eos)
        integ.registry = CounterRegistry()
        integ.step(1e-4)
        for name in (
            "hydro.plan",
            "hydro.ghost",
            "hydro.reconstruct",
            "hydro.riemann",
            "hydro.update",
        ):
            assert integ.registry.count(name) >= 1, name
        assert integ.registry.total("hydro.plan_builds") == 1
        integ.step(1e-4)
        assert integ.registry.total("hydro.plan_builds") == 1  # plan reused


@st.composite
def _mutation_sequences(draw):
    return draw(
        st.lists(
            st.tuples(st.sampled_from(["refine", "derefine"]), st.integers(0, 63)),
            min_size=1,
            max_size=4,
        )
    )


def _apply_mutation(mesh, op, pick):
    """Resolve one (op, pick) against the live mesh; deterministic, so twin
    meshes stay structurally identical."""
    if op == "refine":
        candidates = sorted(k for k in mesh.leaf_keys() if k[0] < 3)
        if not candidates:
            return False
        mesh.refine(candidates[pick % len(candidates)])
        return True
    candidates = []
    for key, node in sorted(mesh.nodes.items()):
        if node.is_leaf:
            continue
        if all(mesh.nodes[k].is_leaf for k in node.children_keys()):
            candidates.append(key)
    if not candidates:
        return False
    try:
        mesh.derefine(candidates[pick % len(candidates)])
    except ValueError:
        return False  # would break 2:1 balance
    return True


class TestBatchedInvalidationProperty:
    @given(
        ops=_mutation_sequences(),
        with_sources=st.booleans(),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_reused_integrator_tracks_topology_changes(self, ops, with_sources):
        """An integrator reused across arbitrary refine/derefine
        sequences stays bit-identical to the reference at every
        intermediate topology."""
        kw = {}
        if with_sources:
            kw.update(gravity=fake_gravity, omega=0.3)
        mesh_a, eos = make_state_mesh(levels=1, n=4)
        mesh_b, _ = make_state_mesh(levels=1, n=4)
        a = HydroIntegrator(mesh_a, eos, **kw)
        b = HydroIntegrator(mesh_b, eos, **kw)
        a.step()
        step_reference(b)
        for op, pick in ops:
            changed = _apply_mutation(mesh_a, op, pick)
            assert _apply_mutation(mesh_b, op, pick) == changed
            dt_a = a.step()
            dt_b = step_reference(b)
            assert dt_a == dt_b
            assert_meshes_identical(mesh_a, mesh_b)
