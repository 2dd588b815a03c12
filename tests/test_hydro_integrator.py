"""Integrator-level validation: conservation, Sod shock tube, sources."""

import numpy as np
import pytest

from repro.hydro import HydroIntegrator, IdealGasEOS
from repro.octree import AmrMesh, Field

from tests.conftest import make_uniform_mesh
from tests.oracles.exact_riemann import sod_solution
from tests.oracles.hydro_step import gravity_source, rotating_frame_source


def sod_mesh(levels=2, gamma=1.4):
    eos = IdealGasEOS(gamma=gamma)
    mesh = AmrMesh(n=8, ghost=2, domain_size=1.0)
    for _ in range(levels):
        for key in list(mesh.leaf_keys()):
            mesh.refine(key)
    for leaf in mesh.leaves():
        x, _, _ = leaf.cell_centers()
        rho = np.where(x < 0, 1.0, 0.125)
        p = np.where(x < 0, 1.0, 0.1)
        eint = p / (gamma - 1.0)
        leaf.subgrid.set_interior(Field.RHO, rho)
        leaf.subgrid.set_interior(Field.EGAS, eint)
        leaf.subgrid.set_interior(Field.TAU, eos.tau_from_eint(eint))
    mesh.restrict_all()
    return mesh, eos


class TestSources:
    def test_gravity_momentum_and_work(self):
        u = np.zeros((8, 2, 2, 2))
        u[Field.RHO] = 2.0
        u[Field.SX] = 1.0
        g = np.zeros((3, 2, 2, 2))
        g[0] = 3.0
        src = gravity_source(u, g)
        assert np.allclose(src[Field.SX], 6.0)  # rho * g
        assert np.allclose(src[Field.EGAS], 3.0)  # s . g
        assert np.allclose(src[Field.RHO], 0.0)

    def test_coriolis_does_no_work(self):
        u = np.zeros((8, 2, 2, 2))
        u[Field.RHO] = 1.0
        u[Field.SX] = 0.7
        u[Field.SY] = -0.2
        x = np.zeros((2, 2, 2))  # at the rotation axis: no centrifugal term
        y = np.zeros((2, 2, 2))
        src = rotating_frame_source(u, omega=2.0, x=x, y=y)
        assert np.allclose(src[Field.EGAS], 0.0)
        # Coriolis: ds_x = +2 w s_y, ds_y = -2 w s_x.
        assert np.allclose(src[Field.SX], 2 * 2.0 * (-0.2))
        assert np.allclose(src[Field.SY], -2 * 2.0 * 0.7)

    def test_centrifugal_work(self):
        u = np.zeros((8, 1, 1, 1))
        u[Field.RHO] = 1.0
        u[Field.SX] = 1.0
        x = np.full((1, 1, 1), 2.0)
        y = np.zeros((1, 1, 1))
        src = rotating_frame_source(u, omega=1.0, x=x, y=y)
        assert src[Field.EGAS][0, 0, 0] == pytest.approx(1.0 * 1.0 * 2.0)

    def test_zero_omega_no_source(self):
        u = np.random.default_rng(0).random((8, 2, 2, 2))
        src = rotating_frame_source(u, 0.0, np.ones((2, 2, 2)), np.ones((2, 2, 2)))
        assert (src == 0).all()


class TestConservation:
    def test_machine_precision_on_uniform_mesh(self):
        mesh, eos = sod_mesh(levels=2)
        integ = HydroIntegrator(mesh, eos)
        m0 = mesh.integral(Field.RHO)
        e0 = mesh.integral(Field.EGAS)
        s0 = mesh.integral(Field.SX)
        for _ in range(5):
            integ.step()
        # Nothing has reached the domain boundary yet: mass and energy are
        # conserved to machine precision.
        assert mesh.integral(Field.RHO) == pytest.approx(m0, rel=1e-12)
        assert mesh.integral(Field.EGAS) == pytest.approx(e0, rel=1e-12)
        # x momentum changes by exactly the boundary pressure integral
        # (p_left - p_right) * area * t — the physically correct budget.
        expected = (1.0 - 0.1) * 1.0 * integ.time
        assert mesh.integral(Field.SX) - s0 == pytest.approx(expected, rel=1e-10)

    def test_uniform_state_stays_uniform(self):
        eos = IdealGasEOS()
        mesh = make_uniform_mesh(levels=1)
        for leaf in mesh.leaves():
            leaf.subgrid.set_interior(Field.RHO, np.ones((8, 8, 8)))
            leaf.subgrid.set_interior(Field.EGAS, np.full((8, 8, 8), 2.5))
            leaf.subgrid.set_interior(
                Field.TAU, eos.tau_from_eint(np.full((8, 8, 8), 2.5))
            )
        integ = HydroIntegrator(mesh, eos)
        integ.step()
        for leaf in mesh.leaves():
            assert np.allclose(leaf.subgrid.interior_view(Field.RHO), 1.0, atol=1e-13)

    def test_tracers_advect_conservatively(self):
        mesh, eos = sod_mesh(levels=2)
        for leaf in mesh.leaves():
            x, _, _ = leaf.cell_centers()
            rho = leaf.subgrid.interior_view(Field.RHO)
            leaf.subgrid.set_interior(Field.FRAC1, np.where(x < 0, rho, 0.0))
        f0 = mesh.integral(Field.FRAC1)
        integ = HydroIntegrator(mesh, eos)
        integ.run(0.05)
        assert mesh.integral(Field.FRAC1) == pytest.approx(f0, rel=1e-11)


class TestSodShockTube:
    @pytest.mark.slow
    def test_density_profile_matches_exact(self):
        mesh, eos = sod_mesh(levels=2)
        integ = HydroIntegrator(mesh, eos)
        integ.run(0.1)
        xs, rhos = [], []
        for leaf in mesh.leaves():
            x, _, _ = leaf.cell_centers()
            o = leaf.origin
            if abs(o[1] + 0.5) < 1e-9 and abs(o[2] + 0.5) < 1e-9:
                xs.extend(x[:, 0, 0])
                rhos.extend(leaf.subgrid.interior_view(Field.RHO)[:, 0, 0])
        xs, rhos = np.array(xs), np.array(rhos)
        order = np.argsort(xs)
        xs, rhos = xs[order], rhos[order]
        exact_rho, _, _ = sod_solution(xs, integ.time, x0=0.0)
        assert np.abs(rhos - exact_rho).mean() < 0.02

    def test_run_respects_t_end(self):
        mesh, eos = sod_mesh(levels=1)
        integ = HydroIntegrator(mesh, eos)
        integ.run(0.02)
        assert integ.time == pytest.approx(0.02)

    def test_dt_override(self):
        mesh, eos = sod_mesh(levels=1)
        integ = HydroIntegrator(mesh, eos)
        integ.step(dt=1e-4)
        assert integ.last_dt == 1e-4
        assert integ.steps_taken == 1
