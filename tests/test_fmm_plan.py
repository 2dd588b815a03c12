"""The cached-plan solver: equivalence with the reference path, cache
invalidation semantics, the topology_version contract, and the integer
pair lists held to the float dual tree traversal."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gravity import fmm
from repro.gravity.fmm import THETA, FmmSolver
from repro.gravity.plan import build_plan, pair_lists
from repro.octree.fields import Field
from repro.octree.mesh import AmrMesh, pack_keys

from tests.conftest import fill_gaussian, make_uniform_mesh
from tests.oracles.fmm import count_m2l_by_level, solve_reference, traverse

REL_TOL = 1e-13


def _assert_results_close(res, ref, rel_tol=REL_TOL):
    assert set(res.phi) == set(ref.phi)
    phi_scale = max(np.abs(p).max() for p in ref.phi.values())
    acc_scale = max(np.abs(a).max() for a in ref.accel.values())
    for key in ref.phi:
        assert np.abs(res.phi[key] - ref.phi[key]).max() <= rel_tol * phi_scale
        assert np.abs(res.accel[key] - ref.accel[key]).max() <= rel_tol * acc_scale


def _assert_stats_equal(a, b):
    assert a.p2m == b.p2m
    assert a.m2m == b.m2m
    assert a.m2l_pairs == b.m2l_pairs
    assert a.near_pairs == b.near_pairs
    assert a.p2p_pairs == b.p2p_pairs
    assert a.l2l == b.l2l
    assert a.m2l_by_level == b.m2l_by_level


class TestEquivalence:
    def test_level1_matches_reference(self):
        mesh = make_uniform_mesh(1)
        fill_gaussian(mesh)
        solver = FmmSolver()
        res = solver.solve(mesh)
        ref = solve_reference(FmmSolver(), mesh)
        _assert_results_close(res, ref)
        _assert_stats_equal(res.stats, ref.stats)

    def test_level2_matches_reference(self, gaussian_mesh_l2):
        solver = FmmSolver()
        res = solver.solve(gaussian_mesh_l2)
        ref = solve_reference(FmmSolver(), gaussian_mesh_l2)
        _assert_results_close(res, ref)
        _assert_stats_equal(res.stats, ref.stats)

    def test_adaptive_mesh_matches_reference(self):
        mesh = make_uniform_mesh(1, n=4)
        fill_gaussian(mesh)
        # Off-centre refinement: exercises cross-level P2P classes and the
        # level-mixed near/far lists.
        mesh.refine(sorted(mesh.leaf_keys())[0])
        res = FmmSolver().solve(mesh)
        ref = solve_reference(FmmSolver(), mesh)
        _assert_results_close(res, ref)
        _assert_stats_equal(res.stats, ref.stats)

    def test_empty_mass_threshold_matches_reference(self):
        mesh = make_uniform_mesh(1)
        fill_gaussian(mesh)
        # Zero out half the leaves so the threshold actually prunes edges.
        for key in sorted(mesh.leaf_keys())[:4]:
            mesh.nodes[key].subgrid.interior_view(Field.RHO)[:] = 0.0
        kwargs = dict(empty_mass_threshold=1e-8)
        res = FmmSolver(**kwargs).solve(mesh)
        ref = solve_reference(FmmSolver(**kwargs), mesh)
        _assert_results_close(res, ref)

    def test_warm_plan_solve_matches_reference(self, gaussian_mesh_l2):
        solver = FmmSolver()
        solver.solve(gaussian_mesh_l2)  # builds the plan
        res = solver.solve(gaussian_mesh_l2)  # reuses it
        ref = solve_reference(FmmSolver(), gaussian_mesh_l2)
        _assert_results_close(res, ref)


class TestPlanCache:
    def test_plan_reused_across_solves(self):
        mesh = make_uniform_mesh(1)
        fill_gaussian(mesh)
        solver = FmmSolver()
        solver.solve(mesh)
        plan = solver.plans.plan
        solver.solve(mesh)
        assert solver.plans.plan is plan

    def test_plan_invalidated_by_refine(self):
        mesh = make_uniform_mesh(1, n=4)
        fill_gaussian(mesh)
        solver = FmmSolver()
        solver.solve(mesh)
        plan = solver.plans.plan
        mesh.refine(sorted(mesh.leaf_keys())[0])
        assert not plan.matches(mesh, THETA)
        solver.solve(mesh)
        assert solver.plans.plan is not plan

    def test_plan_invalidated_by_theta_change(self, monkeypatch):
        mesh = make_uniform_mesh(1)
        fill_gaussian(mesh)
        solver = FmmSolver()
        solver.solve(mesh)
        plan = solver.plans.plan
        monkeypatch.setattr(fmm, "THETA", 0.7)
        solver.solve(mesh)
        assert solver.plans.plan is not plan
        assert solver.plans.plan.theta == 0.7

    def test_plan_not_shared_between_meshes(self):
        mesh_a = make_uniform_mesh(1, n=4)
        mesh_b = make_uniform_mesh(1, n=4)
        fill_gaussian(mesh_a)
        fill_gaussian(mesh_b)
        solver = FmmSolver()
        solver.solve(mesh_a)
        plan = solver.plans.plan
        # Same topology_version value, different object: must rebuild.
        assert not plan.matches(mesh_b, THETA)

    def test_invalidate_plan_forces_rebuild(self):
        mesh = make_uniform_mesh(1)
        fill_gaussian(mesh)
        solver = FmmSolver()
        solver.solve(mesh)
        plan = solver.plans.plan
        solver.invalidate_plan()
        solver.solve(mesh)
        assert solver.plans.plan is not plan


class TestTopologyVersion:
    def test_fresh_mesh_starts_at_zero(self):
        assert AmrMesh(n=4).topology_version == 0

    def test_refine_bumps_version(self):
        mesh = AmrMesh(n=4)
        v0 = mesh.topology_version
        mesh.refine((0, 0))
        assert mesh.topology_version > v0

    def test_derefine_bumps_version(self):
        mesh = AmrMesh(n=4)
        mesh.refine((0, 0))
        v0 = mesh.topology_version
        mesh.derefine((0, 0))
        assert mesh.topology_version > v0


class TestStatsSemantics:
    def test_m2l_by_level_counts_both_directions(self, gaussian_mesh_l2):
        stats = FmmSolver().solve(gaussian_mesh_l2).stats
        assert sum(stats.m2l_by_level.values()) == 2 * stats.m2l_pairs

    def test_count_m2l_by_level_directed(self):
        pairs = [((1, 0), (2, 5)), ((2, 1), (2, 2))]
        assert count_m2l_by_level(pairs) == {1: 1, 2: 3}

    def test_plan_counters_match_reference_stats(self, gaussian_mesh_l2):
        plan = build_plan(gaussian_mesh_l2, 0.5)
        ref = solve_reference(FmmSolver(), gaussian_mesh_l2)
        assert plan.n_p2m == ref.stats.p2m
        assert plan.n_m2m == ref.stats.m2m
        assert plan.n_m2l_pairs == ref.stats.m2l_pairs
        assert plan.n_near_pairs == ref.stats.near_pairs
        assert plan.p2p_pair_count == ref.stats.p2p_pairs
        assert plan.n_l2l == ref.stats.l2l


class TestProfilingCounters:
    def test_phase_timers_recorded(self, gaussian_mesh_l2):
        from repro.profiling.apex import CounterRegistry

        mesh = make_uniform_mesh(1)
        fill_gaussian(mesh)
        solver = FmmSolver()
        solver.registry = CounterRegistry()
        solver.solve(mesh)
        for name in ("fmm.plan", "fmm.p2m_m2m", "fmm.m2l", "fmm.l2p", "fmm.p2p"):
            assert solver.registry.count(name) == 1
        assert solver.registry.total("fmm.plan_builds") == 1
        solver.solve(mesh)
        assert solver.registry.total("fmm.plan_builds") == 1  # plan reused

        # fmm.m2l's split, on a mesh with far and near lists of many blocks:
        # one timer per loop, nested inside fmm.m2l
        solver.registry = reg = CounterRegistry()
        solver.solve(gaussian_mesh_l2)
        plan = solver.plan_for(gaussian_mesh_l2)
        assert len(plan.near_blocks) > 1 and plan.far_levels
        split = ("fmm.m2l.far", "fmm.near_moments", "fmm.m2l.near")
        for name in split:
            assert reg.count(name) == 1 and reg.total(name) > 0.0
        assert sum(reg.total(name) for name in split) <= reg.total("fmm.m2l")


@st.composite
def _mutation_sequences(draw):
    """A short sequence of refine/derefine picks (resolved against the live
    mesh when applied)."""
    return draw(
        st.lists(
            st.tuples(st.sampled_from(["refine", "derefine"]), st.integers(0, 63)),
            min_size=1,
            max_size=5,
        )
    )


def _apply(mesh, op, pick) -> bool:
    """Resolve one refine/derefine pick against the live mesh; whether the
    topology changed."""
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
        children = [mesh.nodes[k] for k in node.children_keys()]
        if all(c.is_leaf for c in children):
            candidates.append(key)
    if not candidates:
        return False
    try:
        mesh.derefine(candidates[pick % len(candidates)])
    except ValueError:
        return False  # would break 2:1 balance
    return True


class TestPlanInvalidationProperty:
    @given(ops=_mutation_sequences())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_reused_solver_tracks_arbitrary_topology_changes(self, ops):
        """A solver reused across arbitrary refine/derefine sequences gives
        the same answer as a fresh solver at every intermediate topology."""
        mesh = make_uniform_mesh(1, n=4)
        fill_gaussian(mesh)
        solver = FmmSolver()
        solver.solve(mesh)  # seed the cache before any mutation
        for op, pick in ops:
            if not _apply(mesh, op, pick):
                continue
            res = solver.solve(mesh)
            fresh = FmmSolver().solve(mesh)
            _assert_results_close(res, fresh, rel_tol=1e-14)
            _assert_stats_equal(res.stats, fresh.stats)


def _assert_pair_lists_match_oracle(mesh, theta):
    """``pair_lists`` equals the float dual tree traversal, array for array."""
    state = pair_lists(mesh, theta)
    far, near, p2p = traverse(mesh, theta)
    for name, pairs in (("far", far), ("near", near), ("p2p", p2p)):
        rows = np.array(
            [sorted(pack_keys(pair)) for pair in pairs], dtype=np.int64
        ).reshape(-1, 2)
        rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
        got = getattr(state, name)
        assert got.dtype == np.int64, name
        assert np.array_equal(got, rows), f"{name} pairs differ at theta={theta}"


class TestPairLists:
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_level1_and_adaptive_match_oracle(self, theta):
        mesh = make_uniform_mesh(1, n=4)
        _assert_pair_lists_match_oracle(mesh, theta)
        mesh.refine(sorted(mesh.leaf_keys())[0])
        _assert_pair_lists_match_oracle(mesh, theta)

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_level2_matches_oracle(self, gaussian_mesh_l2, theta):
        _assert_pair_lists_match_oracle(gaussian_mesh_l2, theta)

    @given(ops=_mutation_sequences())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_refine_derefine_chain_matches_oracle(self, ops):
        mesh = make_uniform_mesh(1, n=2)
        for op, pick in ops:
            if _apply(mesh, op, pick):
                for theta in (0.5, 0.7, 1.0):
                    _assert_pair_lists_match_oracle(mesh, theta)

    @pytest.mark.slow
    def test_level3_matches_oracle(self):
        _assert_pair_lists_match_oracle(make_uniform_mesh(3, n=2), 0.5)
