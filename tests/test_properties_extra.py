"""Cross-module algebraic invariants (property-based)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hydro.eos import IdealGasEOS
from repro.hydro.primitives import PRIM_KEYS
from repro.octree import AmrMesh, Field
from repro.octree.partition import sfc_partition

from tests.conftest import fill_gaussian, make_uniform_mesh
from tests.oracles.ghost import fill_all_ghosts
from tests.oracles.hydro_step import hll_flux

rho_s = st.floats(min_value=0.01, max_value=100.0)
v_s = st.floats(min_value=-50.0, max_value=50.0)
p_s = st.floats(min_value=1e-6, max_value=100.0)


class TestGhostExchangeProperties:
    def test_fill_is_idempotent(self):
        """Ghost filling reads interiors only, so repeating it is identity."""
        mesh = make_uniform_mesh(levels=1)
        fill_gaussian(mesh)
        fill_all_ghosts(mesh)
        snapshot = {
            k: mesh.nodes[k].subgrid.data.copy() for k in mesh.leaf_keys()
        }
        fill_all_ghosts(mesh)
        for key, data in snapshot.items():
            np.testing.assert_array_equal(mesh.nodes[key].subgrid.data, data)

    def test_fill_preserves_interiors(self):
        mesh = make_uniform_mesh(levels=1)
        fill_gaussian(mesh)
        before = {
            k: mesh.nodes[k].subgrid.interior_view().copy()
            for k in mesh.leaf_keys()
        }
        fill_all_ghosts(mesh)
        for key, data in before.items():
            np.testing.assert_array_equal(
                mesh.nodes[key].subgrid.interior_view(), data
            )


class TestRefinementAlgebra:
    def test_prolong_then_restrict_is_identity(self):
        """Constant prolongation followed by 2x2x2 restriction recovers the
        parent exactly (both are conservative)."""
        mesh = AmrMesh(n=8, ghost=2)
        rng = np.random.default_rng(5)
        mesh.root.subgrid.set_interior(Field.RHO, rng.random((8, 8, 8)))
        parent_before = mesh.root.subgrid.interior_view(Field.RHO).copy()
        mesh.refine((0, 0))
        mesh.restrict_all()
        np.testing.assert_allclose(
            mesh.root.subgrid.interior_view(Field.RHO), parent_before, atol=1e-15
        )

    def test_derefine_after_refine_is_identity(self):
        mesh = AmrMesh(n=8, ghost=2)
        rng = np.random.default_rng(6)
        for f in Field:
            mesh.root.subgrid.set_interior(f, rng.random((8, 8, 8)))
        before = mesh.root.subgrid.interior_view().copy()
        mesh.refine((0, 0))
        mesh.derefine((0, 0))
        np.testing.assert_allclose(
            mesh.root.subgrid.interior_view(), before, atol=1e-15
        )


class TestHllConsistency:
    @given(rho=rho_s, v=v_s, p=p_s)
    @settings(max_examples=60, deadline=None)
    def test_flux_consistency(self, rho, v, p):
        """F(W, W) equals the exact physical flux of W — the consistency
        condition every approximate Riemann solver must satisfy."""
        eos = IdealGasEOS(gamma=1.4)
        shape = (2,)
        w = {k: np.zeros(shape) for k in PRIM_KEYS}
        w["rho"] = np.full(shape, rho)
        w["vx"] = np.full(shape, v)
        w["p"] = np.full(shape, p)
        flux, _ = hll_flux(w, w, 0, eos)
        assert flux[Field.RHO][0] == pytest.approx(rho * v, rel=1e-12, abs=1e-12)
        assert flux[Field.SX][0] == pytest.approx(rho * v * v + p, rel=1e-12)
        e = p / 0.4 + 0.5 * rho * v * v
        assert flux[Field.EGAS][0] == pytest.approx((e + p) * v, rel=1e-11, abs=1e-11)


class TestPartitionProperties:
    @given(n_loc=st.integers(min_value=1, max_value=16))
    @settings(max_examples=20, deadline=None)
    def test_every_leaf_assigned_within_range(self, n_loc):
        mesh = make_uniform_mesh(levels=1)
        assignment = sfc_partition(mesh, n_loc)
        assert len(assignment) == 8
        assert all(0 <= loc < n_loc for loc in assignment.values())

    def test_deterministic(self):
        mesh1 = make_uniform_mesh(levels=2)
        mesh2 = make_uniform_mesh(levels=2)
        assert sfc_partition(mesh1, 5) == sfc_partition(mesh2, 5)


class TestPowerProperties:
    @given(
        u1=st.floats(min_value=0, max_value=1),
        u2=st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=40)
    def test_monotone_in_utilization(self, u1, u2):
        from repro.machines import FUGAKU

        lo, hi = sorted((u1, u2))
        assert FUGAKU.power.node_power(lo) <= FUGAKU.power.node_power(hi) + 1e-12


class TestSpecProperties:
    @given(subgrids=st.integers(min_value=1, max_value=10**8))
    @settings(max_examples=40)
    def test_min_nodes_sufficient_and_tight(self, subgrids):
        from repro.distsim.sweep import min_nodes_for
        from repro.machines import FUGAKU
        from repro.scenarios.spec import ScenarioSpec

        spec = ScenarioSpec(name="p", n_subgrids=subgrids, max_level=5)
        mem = FUGAKU.node.memory_gb * 1e9
        nodes = min_nodes_for(spec, FUGAKU)
        assert nodes * mem >= spec.memory_bytes
        if nodes > 1:
            assert (nodes // 2) * mem < spec.memory_bytes
