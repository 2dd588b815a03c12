"""Row-blocked M2L (``FmmPlan.near_blocks`` / ``FarLevel.blocks``) and the
stencil-form P2P templates (one offset table per class, one shared gather
matrix per level difference): same bits as the single-call execution and
the dense oracle, a bounded footprint, and a verifier that refuses bad
blocks."""

import gc
import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gravity.fmm as fmm_mod
import repro.gravity.plan as plan_mod
from repro.analysis.planverify import verify_fmm_blocks
from repro.gravity.fmm import FmmSolver
from repro.gravity.plan import _class_stencil, _row_blocks, build_plan
from repro.profiling.apex import CounterRegistry
from tests.conftest import fill_gaussian, make_uniform_mesh
from tests.oracles.p2p_templates import p2p_unit_templates

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


#: The two refinement-window positions of the ``dwd_l2_regrid`` benchmark
#: topology (78 leaves each; the window hops between them every step).
DWD_WINDOWS = ([(2, 28), (2, 56)], [(2, 7), (2, 35)])


def _assert_templates_equal_oracle(plan):
    nc = plan.n**3
    t1, t3 = np.empty((nc, nc)), np.empty((nc, nc))
    for cls in plan.p2p_classes:
        g1, g3 = cls.templates(t1, t3)
        w1, w3 = p2p_unit_templates(cls.upos_t, cls.upos_s)
        assert g1 is t1 and g3 is t3
        assert np.array_equal(g1, w1) and np.array_equal(g3, w3)
        assert cls.gather is plan.gather_store[cls.rel.tobytes()]
        assert cls.gather.dtype == np.intp and cls.gather.shape == (nc, nc)


def _solve_sha(result):
    digest = hashlib.sha256()
    for key in sorted(result.phi):
        digest.update(np.ascontiguousarray(result.phi[key]).tobytes())
        digest.update(np.ascontiguousarray(result.accel[key]).tobytes())
    return digest.hexdigest()


class TestOneMatrixTemplates:
    def test_templates_bit_identical_cached_and_uncached(self):
        """Every class's gathered ``(t1, t3)`` equals the dense oracle (the
        name predates the stencil form: there is one path now)."""
        classes = {}
        for name, mesh in [
            ("uniform_l2", make_uniform_mesh(2)),
            ("dwd_78_leaves", _refined_l2(DWD_WINDOWS[0])),
            ("one_leaf_refined", _refined_l2([(2, 5)])),
            ("n4", make_uniform_mesh(2, n=4)),
        ]:
            plan = build_plan(mesh, 0.5)
            _assert_templates_equal_oracle(plan)
            classes[name] = len(plan.p2p_classes)
        assert classes == {
            "uniform_l2": 27, "dwd_78_leaves": 139, "one_leaf_refined": 107, "n4": 27,
        }

    @given(picks=st.sets(st.integers(0, 63), max_size=4))
    @settings(max_examples=8, deadline=None)
    def test_templates_equal_oracle_on_random_refine_sets(self, picks):
        plan = build_plan(_refined_l2([(2, code) for code in sorted(picks)]), 0.5)
        assert len(plan.gather_store) == (3 if picks else 1)
        _assert_templates_equal_oracle(plan)

    def test_139_classes_need_three_gathers_under_24_mib(self):
        plan = build_plan(_refined_l2(DWD_WINDOWS[0]), 0.5)
        assert len(plan.p2p_classes) == 139
        assert len(plan.gather_store) == 3
        owners = plan.nbytes()
        gathers = sum(k.nbytes for k in plan.gather_store.values())
        tables = sum(c.tab.nbytes for c in plan.p2p_classes)
        assert owners["templates"] == gathers + tables <= 24 * 2**20
        assert owners["lists"] > plan.near_rows.nbytes
        assert owners["positions"] > plan.leaf_pos.nbytes
        same_level = {c.tab.shape for c in plan.p2p_classes if c.key[0] == 0}
        cross_level = {c.tab.shape for c in plan.p2p_classes if c.key[0] != 0}
        assert same_level == {(15, 15, 15)} and cross_level == {(22, 22, 22)}

        uniform = build_plan(make_uniform_mesh(2), 0.5)
        assert len(uniform.p2p_classes) == 27 and len(uniform.gather_store) == 1
        assert uniform.nbytes()["templates"] <= 4 * 2**20

    def test_delta_chain_shares_three_gathers_across_both_windows(self):
        mesh = _refined_l2(DWD_WINDOWS[0])
        solver = FmmSolver()
        solver.registry = CounterRegistry()
        solver.solve(mesh)
        store = solver.plan_for(mesh).gather_store
        gathers = dict(store)
        for window in (DWD_WINDOWS[1], DWD_WINDOWS[0], DWD_WINDOWS[1]):
            for parent in sorted({(2, c >> 3) for lv, c in mesh.leaf_keys() if lv == 3}):
                mesh.derefine(parent)
            for key in window:
                mesh.refine(key)
            fill_gaussian(mesh)
            result = solver.solve(mesh)
            plan = solver.plan_for(mesh)
            assert plan.gather_store is store and len(store) == 3
            assert all(store[p] is k for p, k in gathers.items())
            assert all(c.gather is store[c.rel.tobytes()] for c in plan.p2p_classes)
        assert solver.registry.count("plan.fmm.delta_builds") == 3
        cold = FmmSolver().solve(_refined_l2(DWD_WINDOWS[1]))
        assert _solve_sha(result) == _solve_sha(cold)

    @pytest.mark.slow
    def test_star_l3_templates_under_24_mib(self):
        from repro.scenarios.rotating_star import rotating_star

        plan = build_plan(rotating_star(level=3).mesh, 0.5)
        assert plan.nbytes()["templates"] <= 24 * 2**20


class TestLatticeProperty:
    """The stencil form needs ``2 * upos`` integral and separable in C
    order; plan assembly checks it instead of assuming it."""

    @staticmethod
    def _class():
        return build_plan(make_uniform_mesh(1, n=4), 0.5).p2p_classes[0]

    def test_clean_class_rebuilds_its_own_stencil(self):
        cls = self._class()
        tab, rel, gather = _class_stencil(cls.key, cls.upos_t, cls.upos_s, 4, {})
        assert np.array_equal(tab, cls.tab) and np.array_equal(rel, cls.rel)
        assert np.array_equal(gather, cls.gather)

    def test_non_integral_positions_raise(self):
        cls = self._class()
        upos = cls.upos_t + 0.25
        with pytest.raises(ValueError, match=re.escape(str(cls.key))):
            _class_stencil(cls.key, upos, cls.upos_s, 4, {})

    def test_non_separable_positions_raise(self):
        cls = self._class()
        upos = cls.upos_s.copy()
        upos[5, 0] += 1.0  # one cell's x no longer a function of i_x alone
        with pytest.raises(ValueError, match="separable"):
            _class_stencil(cls.key, cls.upos_t, upos, 4, {})

    def test_not_c_ordered_positions_raise(self):
        cls = self._class()
        with pytest.raises(ValueError, match="P2P class"):
            _class_stencil(cls.key, cls.upos_t[:, ::-1].copy(), cls.upos_s, 4, {})


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
        self.p2p_classes = []


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
