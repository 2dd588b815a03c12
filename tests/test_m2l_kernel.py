"""The segmented M2L kernel against its two oracles: the einsum
formulation it replaced, bit for bit (``uint64`` views, so ``+0.0`` and
``-0.0`` differ), and the per-target ``m2l_batch`` of the reference
solve, to round-off."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gravity.fmm as fmm_mod
from repro.gravity.fmm import FmmSolver
from repro.gravity.kernels import m2l_segmented
from tests.oracles.fmm import m2l_batch, m2l_segmented_einsum


def _bits(arrays):
    return [np.ascontiguousarray(a, dtype=np.float64).view(np.uint64) for a in arrays]


def assert_same_bits(args, order=3):
    got = _bits(m2l_segmented(*args, order=order))
    want = _bits(m2l_segmented_einsum(*args, order=order))
    for name, g, w in zip(("l0", "l1", "l2", "l3"), got, want):
        assert g.shape == w.shape, name
        assert np.array_equal(g, w), f"{name} differs at order {order}"


def row_list(counts, seed, zero_mass=(), zero_axes=()):
    """Source rows for segments of ``counts`` rows each: random moments,
    target centres away from the sources.  Segments in ``zero_mass`` carry
    no mass or moments at all; along ``zero_axes`` every row's source sits
    level with its target, so that displacement component is exactly 0."""
    rng = np.random.default_rng(seed)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
    rows = int(indptr[-1])
    centers = rng.uniform(-1.0, 1.0, size=(len(counts), 3))
    com = np.repeat(centers, counts, axis=0) + rng.choice([-1.0, 1.0], size=(rows, 3)) * (
        rng.uniform(0.5, 2.0, size=(rows, 3))
    )
    for axis in zero_axes:
        com[:, axis] = np.repeat(centers[:, axis], counts)
    mass = rng.uniform(0.0, 1.0, size=rows)
    quad = rng.normal(size=(rows, 3, 3))
    quad = quad + quad.transpose(0, 2, 1)
    octu = rng.normal(size=(rows, 3, 3, 3))
    for seg in zero_mass:
        span = slice(indptr[seg], indptr[seg + 1])
        mass[span], quad[span], octu[span] = 0.0, 0.0, 0.0
    return mass, com, quad, octu, centers, indptr


class TestSameBitsAsEinsum:
    @given(
        counts=st.lists(st.integers(1, 30), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from([1, 2, 3]),
        zero_mass=st.sets(st.integers(0, 11), max_size=3),
        zero_axes=st.sets(st.integers(0, 2), max_size=2),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_row_lists(self, counts, seed, order, zero_mass, zero_axes):
        zero_mass = {s for s in zero_mass if s < len(counts)}
        assert_same_bits(row_list(counts, seed, zero_mass, zero_axes), order)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_single_row_segments(self, order):
        assert_same_bits(row_list([1] * 17, seed=3), order)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_multi_segment_lists_with_empty_mass_and_zero_components(self, order):
        args = row_list([5, 1, 40, 2, 9, 1, 64], 11, zero_mass={0, 3, 6}, zero_axes={1})
        assert_same_bits(args, order)

    def test_all_zero_mass_gives_positive_zeros(self):
        """A zero-mass segment's locals are exact ``+0.0`` (einsum adds every
        product to a zeroed output), although displacement components of
        both signs make some broadcast products ``-0.0``."""
        args = row_list([4, 3], 5, zero_mass={0, 1})
        args[1][:] = args[4].max() + 1.0
        args[1][:, 0] = args[4].min() - 1.0  # x_0 > 0, x_1 < 0, x_2 < 0
        out = m2l_segmented(*args)
        assert all(np.array_equal(b, np.zeros_like(b)) for b in _bits(out))
        assert_same_bits(args)

    @pytest.mark.parametrize(
        "kernel", [m2l_segmented, m2l_segmented_einsum], ids=["kernel", "oracle"]
    )
    def test_coincident_centre_raises(self, kernel):
        mass, com, quad, octu, centers, indptr = row_list([3, 2], 7)
        com[4] = centers[1]
        with pytest.raises(ZeroDivisionError, match="coincides"):
            kernel(mass, com, quad, octu, centers, indptr)


@pytest.fixture(scope="module")
def star_l2_calls():
    """Every kernel call (arguments and result) of one level-2 star solve,
    and the solve's plan."""
    from repro.scenarios.rotating_star import rotating_star

    calls = []
    solver = FmmSolver()
    mesh = rotating_star(level=2).mesh
    mp = pytest.MonkeyPatch()

    def recorder(*args, **kwargs):
        out = m2l_segmented(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    mp.setattr(fmm_mod, "m2l_segmented", recorder)
    try:
        solver.solve(mesh)
    finally:
        mp.undo()
    return calls, solver.plan_for(mesh)


class Window:
    """Refine the base-level nodes whose centres lie within ``radius`` of
    ``site``; every finer leaf outside them may coarsen."""

    def __init__(self, mesh, site, radius, base_level):
        self.keys = {
            key for key, node in mesh.nodes.items()
            if node.level == base_level and np.linalg.norm(node.center - site) < radius
        }

    def wants_refinement(self, leaf):
        return leaf.key in self.keys

    def allows_coarsening(self, leaf):
        return leaf.parent_key not in self.keys


@pytest.fixture(scope="module")
def dwd_l2_hop_calls():
    """Every kernel call of one level-2 DWD solve after the refinement
    window hopped from one site to the mirrored one (the regrid workload's
    operation), and the solve's mesh and plan."""
    from repro.octree.regrid import regrid
    from repro.scenarios.dwd import dwd_scenario

    mesh = dwd_scenario(level=2, scf_grid=32).mesh
    pitch = mesh.domain_size / 4
    site = 0.9 * pitch * np.array([np.cos(np.pi / 4), np.sin(np.pi / 4), 0.0])
    solver = FmmSolver()
    regrid(mesh, Window(mesh, site, 0.6 * pitch, 2), max_level=3)
    solver.solve(mesh)
    regrid(mesh, Window(mesh, -site, 0.6 * pitch, 2), max_level=3)
    calls = []
    mp = pytest.MonkeyPatch()

    def recorder(*args, **kwargs):
        calls.append(args)
        return m2l_segmented(*args, **kwargs)

    mp.setattr(fmm_mod, "m2l_segmented", recorder)
    try:
        solver.solve(mesh)
    finally:
        mp.undo()
    return calls, mesh, solver.plan_for(mesh)


class TestRealBlocks:
    def test_star_l2_blocks_same_bits(self, star_l2_calls):
        calls, plan = star_l2_calls
        far_blocks = sum(len(fl.blocks) for fl in plan.far_levels)
        assert len(plan.near_blocks) > 1  # the near list's blocks come last
        assert len(calls) == far_blocks + len(plan.near_blocks)
        for args, kwargs, out in calls:
            want = _bits(m2l_segmented_einsum(*args, **kwargs))
            assert all(np.array_equal(g, w) for g, w in zip(_bits(out), want))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_dwd_l2_blocks_after_window_hop_same_bits(self, dwd_l2_hop_calls, order):
        calls, mesh, plan = dwd_l2_hop_calls
        assert len(list(mesh.leaf_keys())) == 78
        levels = np.array([mesh.nodes[key].level for key in plan.leaf_keys])
        src = levels[plan.part_slots[plan.near_rows // 8]]
        tgt = np.repeat(
            levels[plan.part_slots[plan.near_center_rows // 8]], np.diff(plan.near_indptr)
        )
        assert (src != tgt).any()  # coarse-fine near rows
        far_blocks = sum(len(fl.blocks) for fl in plan.far_levels)
        assert len(calls) == far_blocks + len(plan.near_blocks)
        for args in calls:
            assert_same_bits(args, order)


class TestPerTargetBatch:
    """Each segment's locals equal ``m2l_batch`` over that segment's rows."""

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_segments_equal_m2l_batch(self, order):
        mass, com, quad, octu, centers, indptr = row_list([1, 7, 30, 2, 12], 23)
        got = m2l_segmented(mass, com, quad, octu, centers, indptr, order=order)
        for t in range(len(centers)):
            rows = slice(indptr[t], indptr[t + 1])
            want = m2l_batch(
                mass[rows], com[rows], quad[rows], octu[rows], centers[t], order=order
            )
            for g, w in zip(got, (want.l0, want.l1, want.l2, want.l3)):
                np.testing.assert_allclose(g[t], w, rtol=1e-13)
