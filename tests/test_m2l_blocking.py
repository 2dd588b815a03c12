"""Row-blocked M2L (``FmmPlan.near_blocks`` / ``FarLevel.blocks``) and the
one-matrix P2P template store: same bits as the single-call execution,
a bounded transient footprint, and a verifier that refuses bad blocks."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gravity.fmm as fmm_mod
import repro.gravity.plan as plan_mod
from repro.analysis.planverify import verify_fmm_blocks
from repro.gravity.fmm import FmmSolver
from repro.gravity.pairwise import p2p_unit_templates
from repro.gravity.plan import _row_blocks, build_plan
from tests.conftest import fill_gaussian, make_uniform_mesh

ONE_BLOCK = 10**9  # larger than any list: one kernel call per row list


def _refined_l2(picks):
    mesh = make_uniform_mesh(2)
    for key in picks:
        mesh.refine(key)
    fill_gaussian(mesh)
    return mesh


def _solve_recorded(mesh, block_rows, monkeypatch):
    """One cold solve at ``block_rows``; returns the result, the plan and
    every ``m2l_segmented`` output concatenated in call order."""
    calls = []

    def recorder(*args, **kwargs):
        out = fmm_mod_m2l(*args, **kwargs)
        calls.append(out)
        return out

    fmm_mod_m2l = fmm_mod.m2l_segmented
    monkeypatch.setattr(plan_mod, "M2L_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(fmm_mod, "m2l_segmented", recorder)
    solver = FmmSolver()
    res = solver.solve(mesh)
    plan = solver.plan_for(mesh)
    monkeypatch.setattr(fmm_mod, "m2l_segmented", fmm_mod_m2l)
    locals_ = [np.concatenate([c[i] for c in calls]) for i in range(4)] if calls else []
    return res, plan, len(calls), locals_


class TestBlockedEqualsSingleCall:
    @pytest.fixture(scope="class")
    def meshes(self, gaussian_mesh_l2):
        level1 = make_uniform_mesh(1)
        fill_gaussian(level1)
        return {
            "level1": level1,
            "level2": gaussian_mesh_l2,
            "refined": _refined_l2([(2, 5)]),
        }

    @pytest.mark.parametrize("name", ["level1", "level2", "refined"])
    def test_bitwise_identical(self, meshes, name, monkeypatch):
        mesh = meshes[name]
        ref, ref_plan, ref_calls, ref_locals = _solve_recorded(
            mesh, ONE_BLOCK, monkeypatch
        )
        # the reference really is one call over each whole list
        lists = len(ref_plan.far_levels) + (ref_plan.near_rows.size > 0)
        assert ref_calls == lists
        for rows in (64, 1000, 8192):
            res, plan, calls, locals_ = _solve_recorded(mesh, rows, monkeypatch)
            assert calls == len(plan.near_blocks) + sum(
                len(fl.blocks) for fl in plan.far_levels
            )
            if rows == 64 and plan.near_rows.size:
                # every near segment outweighs 64 rows: one segment per block
                assert np.diff(plan.near_indptr).min() > 64
                assert len(plan.near_blocks) == plan.near_indptr.size - 1
                assert calls > ref_calls
            for got, want in zip(locals_, ref_locals):  # q0..q3 (after l0..l3)
                assert np.array_equal(got, want)
            for key in ref.phi:
                assert np.array_equal(res.phi[key], ref.phi[key])
                assert np.array_equal(res.accel[key], ref.accel[key])

    def test_every_build_tier_carries_the_same_blocks(self, tmp_path):
        from repro.core.plancache import PlanCache

        mesh = _refined_l2([])
        delta_solver = FmmSolver()
        delta_solver.plan_for(mesh)
        mesh.refine((2, 5))
        fill_gaussian(mesh)
        delta = delta_solver.plan_for(mesh)
        cold = build_plan(mesh, 0.5)
        FmmSolver(plan_cache=PlanCache(tmp_path)).plan_for(mesh)  # stores
        hit = FmmSolver(plan_cache=PlanCache(tmp_path)).plan_for(mesh)
        for plan in (delta, hit):
            assert np.array_equal(plan.near_blocks, cold.near_blocks)
            for fl, ref in zip(plan.far_levels, cold.far_levels):
                assert np.array_equal(fl.blocks, ref.blocks)
        assert len(cold.near_blocks) > 1


class TestRowBlocks:
    @given(
        counts=st.lists(st.integers(1, 40), max_size=60),
        max_rows=st.integers(1, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_blocks_tile_the_segments(self, counts, max_rows):
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        blocks = _row_blocks(indptr, max_rows)
        assert blocks.shape == (len(blocks), 2)
        if not counts:
            assert len(blocks) == 0
            return
        # contiguous, in order, covering [0, n_segments)
        assert blocks[0, 0] == 0 and blocks[-1, 1] == len(counts)
        assert np.array_equal(blocks[1:, 0], blocks[:-1, 1])
        assert np.all(blocks[:, 1] > blocks[:, 0])
        rows = indptr[blocks[:, 1]] - indptr[blocks[:, 0]]
        single = (blocks[:, 1] - blocks[:, 0]) == 1
        assert np.all((rows <= max_rows) | single)
        # greedy: the next segment would not have fitted
        for (_, s1), r in zip(blocks[:-1], rows[:-1]):
            assert r + counts[s1] > max_rows


def _warm_solve_peak(mesh):
    solver = FmmSolver()
    solver.solve(mesh)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solver.solve(mesh)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


class TestTransientFootprint:
    """210 MiB on the level-2 star before row blocking (all of it M2L
    einsum temporaries, so it grew with the row count)."""

    def test_star_l2_warm_solve_under_32_mb(self):
        from repro.scenarios.rotating_star import rotating_star

        assert _warm_solve_peak(rotating_star(level=2).mesh) <= 32.0

    @pytest.mark.slow
    def test_star_l3_warm_solve_under_64_mb(self):
        from repro.scenarios.rotating_star import rotating_star

        mesh = rotating_star(level=3).mesh
        assert _warm_solve_peak(mesh) <= 64.0


class TestOneMatrixTemplates:
    def test_templates_bit_identical_cached_and_uncached(self):
        mesh = _refined_l2([(2, 5)])
        nc = mesh.n**3
        plan = build_plan(mesh, 0.5, template_budget_bytes=10 * nc * nc * 8)
        cached = [c for c in plan.p2p_classes if c.t1 is not None]
        assert len(cached) == 10 == len(plan.template_store)
        assert len(plan.p2p_classes) > 10
        buf = np.empty((nc, nc))
        for cls in plan.p2p_classes:
            t1, t3 = cls.templates(buf)
            w1, w3 = p2p_unit_templates(cls.upos_t, cls.upos_s)
            assert np.array_equal(t1, w1) and np.array_equal(t3, w3)
            if cls.t1 is not None:
                assert t3 is buf and t1 is plan.template_store[cls.key]

    def test_default_budget_holds_96_of_139_classes(self):
        mesh = make_uniform_mesh(2)  # the DWD benchmark topology: 78 leaves
        for key in [(2, 28), (2, 56)]:
            mesh.refine(key)
        plan = build_plan(mesh, 0.5)
        assert len(plan.p2p_classes) == 139
        assert sum(c.t1 is not None for c in plan.p2p_classes) == 96
        owners = plan.nbytes()
        assert owners["templates"] == 96 * mesh.n**6 * 8
        assert owners["lists"] > plan.near_rows.nbytes
        assert owners["positions"] > plan.leaf_pos.nbytes


class _FakeLevel:
    def __init__(self, counts, blocks):
        self.indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        self.src_idx = np.zeros(self.indptr[-1], dtype=np.intp)
        self.tgt_idx = np.arange(len(counts), dtype=np.intp)
        self.blocks = np.asarray(blocks, dtype=np.intp)


class _FakePlan:
    """Four near segments of two rows plus one far level of three targets."""

    def __init__(self, near_blocks, far_blocks=((0, 2), (2, 3))):
        self.near_indptr = np.arange(0, 10, 2, dtype=np.intp)
        self.near_rows = np.zeros(8, dtype=np.intp)
        self.near_center_rows = np.zeros(4, dtype=np.intp)
        self.near_blocks = np.asarray(near_blocks, dtype=np.intp)
        self.far_levels = [_FakeLevel([1, 2, 1], far_blocks)]


class TestVerifyFmmBlocks:
    def test_clean_blocks_pass(self):
        assert verify_fmm_blocks(_FakePlan([(0, 2), (2, 4)])) == []

    @pytest.mark.parametrize(
        "near_blocks",
        [
            [(0, 3), (2, 4)],  # overlapping: segment 2 executed twice
            [(0, 1), (2, 4)],  # gapped: segment 1 never executed
            [(2, 4), (0, 2)],  # reordered: plan order is the contract
        ],
        ids=["overlap", "gap", "reorder"],
    )
    def test_bad_near_blocks_flagged(self, near_blocks):
        found = {v.check for v in verify_fmm_blocks(_FakePlan(near_blocks))}
        assert found == {"fmm-block-tiling"}

    def test_bad_far_blocks_flagged(self):
        plan = _FakePlan([(0, 4)], far_blocks=[(0, 2)])  # target 2 dropped
        found = verify_fmm_blocks(plan)
        assert [v.check for v in found] == ["fmm-block-tiling"]
        assert "far level" in found[0].detail
