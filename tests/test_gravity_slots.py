"""Gravity results travel in slot order, from the FMM solve to ``rhs``.

The FMM lays its leaves out in sorted-key order, and so does the hydro
plan for every rank count: the solver fills the hydro step's
acceleration stack row for row, with no key → slot map in between.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.gravity.fmm import FmmSolver
from repro.hydro.plan import HydroPlan
from repro.scenarios import dwd_scenario, rotating_star, sedov_blast, v1309_scenario

from tests.conftest import fill_gaussian, make_uniform_mesh
from tests.test_fmm_plan import _apply, _mutation_sequences

SCENARIOS = {
    "blast": lambda level: sedov_blast(levels=level),
    "star": lambda level: rotating_star(level, scf_grid=16),
    "dwd": lambda level: dwd_scenario(level, scf_grid=16),
    "v1309": lambda level: v1309_scenario(level, scf_grid=16),
}


def assert_fmm_order_is_slot_order(mesh, solver):
    keys = solver.plan_for(mesh).leaf_keys
    for nranks in (1, 2):
        assert keys == HydroPlan(mesh, nranks=nranks).leaf_keys, nranks


class TestSlotOrder:
    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenarios(self, name, level):
        assert_fmm_order_is_slot_order(SCENARIOS[name](level).mesh, FmmSolver())

    @given(ops=_mutation_sequences())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_refine_derefine_chain(self, ops):
        """Along the chain the reused solver's plans come from the delta
        tier; their leaf order still equals the hydro slots."""
        mesh = make_uniform_mesh(1, n=2)
        solver = FmmSolver()
        assert_fmm_order_is_slot_order(mesh, solver)
        for op, pick in ops:
            if _apply(mesh, op, pick):
                assert_fmm_order_is_slot_order(mesh, solver)


@pytest.fixture(scope="module")
def adaptive_mesh():
    mesh = make_uniform_mesh(1, n=4)
    fill_gaussian(mesh)
    mesh.refine(sorted(mesh.leaf_keys())[0])  # cross-level lists
    return mesh


class TestGravityCallback:
    def test_fills_every_row_with_the_solve(self, adaptive_mesh):
        solver = FmmSolver()
        n = adaptive_mesh.n
        out = np.full((len(adaptive_mesh.leaves()), 3, n, n, n), np.nan)
        solver(adaptive_mesh, out)
        assert np.isfinite(out).all()
        accel = solver.solve(adaptive_mesh).accel
        for row, key in zip(out, HydroPlan(adaptive_mesh).leaf_keys):
            assert np.array_equal(row.view(np.uint64), accel[key].view(np.uint64))

    def test_wrong_slot_count_raises(self, adaptive_mesh):
        """A stack that does not hold every leaf is an error."""
        n = adaptive_mesh.n
        out = np.zeros((len(adaptive_mesh.leaves()) - 1, 3, n, n, n))
        with pytest.raises(ValueError):
            FmmSolver()(adaptive_mesh, out)

    def test_looks_up_solve_when_called(self, adaptive_mesh):
        """A wrapper installed on the instance (the e2e ``gravity.solve``
        span) sees every solve the callback runs."""
        solver = FmmSolver()
        solve, calls = solver.solve, []
        solver.solve = lambda mesh: calls.append(mesh) or solve(mesh)
        n = adaptive_mesh.n
        solver(adaptive_mesh, np.empty((len(adaptive_mesh.leaves()), 3, n, n, n)))
        assert calls == [adaptive_mesh]
