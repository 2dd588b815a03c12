"""Hydrodynamics: EOS, reconstruction, Riemann solver, solver, integrator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.hydro import (
    HydroIntegrator,
    IdealGasEOS,
    PolytropicEOS,
    global_timestep,
    primitives_from_conserved,
)
from repro.hydro.primitives import PRIM_KEYS
from repro.octree import AmrMesh, Field

from tests.conftest import make_uniform_mesh
from tests.oracles.exact_riemann import (
    RiemannState,
    exact_riemann,
    sod_solution,
)
from tests.oracles.ghost import fill_all_ghosts
from tests.oracles.hydro_step import (
    cfl_timestep_subgrid,
    dudt_subgrid,
    hll_flux,
    minmod,
    reconstruct_axis,
)

finite_pos = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False)


class TestEOS:
    def test_pressure_gamma_law(self, eos):
        assert eos.pressure(np.array(1.0), np.array(2.5)) == pytest.approx(1.0)

    def test_sound_speed(self, eos):
        c = eos.sound_speed(np.array(1.0), np.array(1.0))
        assert c == pytest.approx(np.sqrt(1.4))

    def test_tau_round_trip(self, eos):
        eint = np.array([0.3, 2.0, 17.0])
        np.testing.assert_allclose(eos.eint_from_tau(eos.tau_from_eint(eint)), eint)

    def test_dual_energy_uses_difference_when_healthy(self, eos):
        rho = np.array(1.0)
        egas = np.array(10.0)
        kinetic = np.array(1.0)
        tau = eos.tau_from_eint(np.array(5.0))  # deliberately inconsistent
        eint = eos.dual_energy_eint(rho, egas, kinetic, tau)
        assert eint == pytest.approx(9.0)

    def test_dual_energy_uses_tau_when_kinetic_dominates(self, eos):
        rho = np.array(1.0)
        egas = np.array(10.0)
        kinetic = np.array(9.9999999)  # difference below eta * egas
        tau = eos.tau_from_eint(np.array(5.0))
        eint = eos.dual_energy_eint(rho, egas, kinetic, tau)
        assert eint == pytest.approx(5.0)

    def test_polytropic_relations(self):
        poly = PolytropicEOS(K=2.0, n=1.5)
        assert poly.Gamma == pytest.approx(5.0 / 3.0)
        rho = np.array([0.0, 0.5, 2.0])
        # eps * rho == n * p.
        np.testing.assert_allclose(
            poly.internal_energy_density(rho), poly.n * poly.pressure(rho)
        )


class TestMinmod:
    def test_same_sign_takes_smaller(self):
        assert minmod(np.array(2.0), np.array(3.0)) == 2.0
        assert minmod(np.array(-3.0), np.array(-1.0)) == -1.0

    def test_opposite_signs_zero(self):
        assert minmod(np.array(-1.0), np.array(2.0)) == 0.0

    def test_zero_input(self):
        assert minmod(np.array(0.0), np.array(5.0)) == 0.0

    @given(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
    def test_bounded_by_inputs(self, a, b):
        m = float(minmod(np.array(a), np.array(b)))
        assert abs(m) <= abs(a) + 1e-15
        assert abs(m) <= abs(b) + 1e-15


class TestReconstruction:
    def test_face_count(self):
        w = np.arange(12.0)
        wl, wr = reconstruct_axis(w, 0)
        assert wl.shape[0] == 9  # M - 3 faces
        assert wr.shape[0] == 9

    def test_linear_profile_reconstructed_exactly(self):
        w = 2.0 + 0.5 * np.arange(12.0)
        wl, wr = reconstruct_axis(w, 0)
        # For a linear profile both sides of each face agree at the face.
        np.testing.assert_allclose(wl, wr, rtol=1e-13)

    def test_constant_profile(self):
        w = np.full(10, 3.0)
        wl, wr = reconstruct_axis(w, 0)
        assert np.allclose(wl, 3.0) and np.allclose(wr, 3.0)

    def test_works_along_any_axis(self):
        w = np.random.default_rng(0).random((8, 8, 8))
        for axis in range(3):
            wl, wr = reconstruct_axis(w, axis)
            assert wl.shape[axis] == 5

    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                    min_size=4, max_size=30))
    @settings(max_examples=50)
    def test_no_new_extrema(self, values):
        """TVD property: reconstructed face states stay within the range of
        the neighbouring cell averages."""
        w = np.array(values)
        wl, wr = reconstruct_axis(w, 0)
        for j in range(wl.shape[0]):
            lo = min(w[j + 1], w[j + 2]) - 1e-9
            hi = max(w[j + 1], w[j + 2]) + 1e-9
            # Left state belongs to cell j+1, bounded by its neighbours.
            assert min(w[j], w[j + 1], w[j + 2]) - 1e-9 <= wl[j] <= max(
                w[j], w[j + 1], w[j + 2]
            ) + 1e-9
            assert lo <= wr[j] or wr[j] <= hi  # wr within neighbour range


class TestHLL:
    def make_state(self, rho, v, p, axis=0):
        shape = (4,)
        zeros = np.zeros(shape)
        w = {k: zeros.copy() for k in PRIM_KEYS}
        w["rho"] = np.full(shape, rho)
        w[("vx", "vy", "vz")[axis]] = np.full(shape, v)
        w["p"] = np.full(shape, p)
        w["tau"] = np.full(shape, 1.0)
        return w

    def test_uniform_state_flux_is_advective(self, eos):
        w = self.make_state(1.0, 2.0, 1.0)
        flux, signal = hll_flux(w, w, 0, eos)
        assert np.allclose(flux[Field.RHO], 2.0)  # rho * u
        assert signal.max() > 2.0

    def test_static_contact_hll_diffusion(self, eos):
        wl = self.make_state(1.0, 0.0, 1.0)
        wr = self.make_state(0.5, 0.0, 1.0)
        flux, _ = hll_flux(wl, wr, 0, eos)
        # HLL smears contacts: the mass flux equals the analytic HLL value
        # S_L S_R (rho_R - rho_L) / (S_R - S_L) with S = -/+ max sound speed.
        c = float(eos.sound_speed(np.array(0.5), np.array(1.0)))
        expected = (c * c) * (0.5 - 1.0) / (2 * c) * -1.0
        assert np.allclose(flux[Field.RHO], expected, rtol=1e-12)
        assert np.allclose(flux[Field.SX], 1.0, rtol=1e-10)

    def test_supersonic_upwinding(self, eos):
        wl = self.make_state(1.0, 10.0, 1.0)
        wr = self.make_state(2.0, 10.0, 1.0)
        flux, _ = hll_flux(wl, wr, 0, eos)
        # Flow is supersonic to the right: flux must equal the left flux.
        assert np.allclose(flux[Field.RHO], 10.0)

    def test_symmetry_under_reflection(self, eos):
        """Mirroring left/right and the velocity sign flips the mass flux."""
        wl = self.make_state(1.0, 0.3, 1.0)
        wr = self.make_state(0.125, -0.1, 0.1)
        flux_fwd, _ = hll_flux(wl, wr, 0, eos)

        wl_m = self.make_state(0.125, 0.1, 0.1)
        wr_m = self.make_state(1.0, -0.3, 1.0)
        flux_rev, _ = hll_flux(wl_m, wr_m, 0, eos)
        assert flux_fwd[Field.RHO][0] == pytest.approx(-flux_rev[Field.RHO][0])

    def test_works_on_each_axis(self, eos):
        for axis in range(3):
            w = self.make_state(1.0, 1.0, 1.0, axis=axis)
            flux, _ = hll_flux(w, w, axis, eos)
            assert np.allclose(flux[Field.SX + axis], 1.0 + 1.0)  # rho v^2 + p


class TestExactRiemann:
    def test_sod_star_region(self):
        # Toro's reference values for the Sod problem.
        left = RiemannState(1.0, 0.0, 1.0)
        right = RiemannState(0.125, 0.0, 0.1)
        rho, u, p = exact_riemann(left, right, np.array([0.0]), gamma=1.4)
        assert p[0] == pytest.approx(0.30313, rel=1e-4)
        assert u[0] == pytest.approx(0.92745, rel=1e-4)

    def test_sod_limits(self):
        x = np.array([0.0, 1.0])
        rho, u, p = sod_solution(x, t=0.05, x0=0.5)
        assert rho[0] == pytest.approx(1.0)
        assert rho[1] == pytest.approx(0.125)

    def test_t_zero_initial_condition(self):
        x = np.linspace(0, 1, 11)
        rho, u, p = sod_solution(x, t=0.0, x0=0.5)
        assert (u == 0).all()
        assert rho[0] == 1.0 and rho[-1] == 0.125

    def test_symmetric_expansion(self):
        left = RiemannState(1.0, -1.0, 1.0)
        right = RiemannState(1.0, 1.0, 1.0)
        rho, u, p = exact_riemann(left, right, np.array([0.0]), gamma=1.4)
        assert u[0] == pytest.approx(0.0, abs=1e-10)


class TestDudt:
    def test_uniform_state_is_steady(self, eos):
        mesh = make_uniform_mesh(levels=1)
        for leaf in mesh.leaves():
            leaf.subgrid.set_interior(Field.RHO, np.ones((8, 8, 8)))
            leaf.subgrid.set_interior(Field.EGAS, np.full((8, 8, 8), 2.5))
            leaf.subgrid.set_interior(Field.TAU, eos.tau_from_eint(np.full((8, 8, 8), 2.5)))
        fill_all_ghosts(mesh)
        for leaf in mesh.leaves():
            dudt, signal = dudt_subgrid(leaf.subgrid, leaf.dx, eos)
            assert np.abs(dudt).max() < 1e-12
            assert signal > 0

    def test_ghost_width_guard(self, eos):
        from repro.octree.subgrid import SubGrid

        sg = SubGrid(8, 1)
        with pytest.raises(ValueError):
            dudt_subgrid(sg, 0.1, eos)

    def test_primitives_velocity(self, eos):
        u = np.zeros((8, 2, 2, 2))
        u[Field.RHO] = 2.0
        u[Field.SX] = 4.0
        u[Field.EGAS] = 10.0
        w = primitives_from_conserved(u, eos)
        assert np.allclose(w["vx"], 2.0)
        assert np.allclose(w["rho"], 2.0)

    def test_primitives_floor_on_vacuum(self, eos):
        u = np.zeros((8, 2, 2, 2))
        w = primitives_from_conserved(u, eos)
        assert np.isfinite(w["vx"]).all()
        assert (w["rho"] > 0).all()


class TestTimestep:
    def test_cfl_scales_with_dx(self, eos):
        mesh = make_uniform_mesh(levels=1)
        for leaf in mesh.leaves():
            leaf.subgrid.set_interior(Field.RHO, np.ones((8, 8, 8)))
            leaf.subgrid.set_interior(Field.EGAS, np.full((8, 8, 8), 2.5))
        leaf = mesh.leaves()[0]
        dt1 = cfl_timestep_subgrid(leaf.subgrid, leaf.dx, eos)
        dt2 = cfl_timestep_subgrid(leaf.subgrid, leaf.dx / 2, eos)
        assert dt1 == pytest.approx(2 * dt2)

    def test_global_timestep_is_minimum(self, eos):
        mesh = AmrMesh()
        mesh.refine((0, 0))
        mesh.refine((1, 0))  # finer leaves -> smaller dt
        for leaf in mesh.leaves():
            leaf.subgrid.set_interior(Field.RHO, np.ones((8, 8, 8)))
            leaf.subgrid.set_interior(Field.EGAS, np.full((8, 8, 8), 2.5))
        dt = global_timestep(mesh, eos)
        finest = [l for l in mesh.leaves() if l.level == 2][0]
        assert dt == pytest.approx(cfl_timestep_subgrid(finest.subgrid, finest.dx, eos))

    def test_vacuum_mesh_gives_finite_dt(self, eos):
        # The density/energy floors keep the sound speed positive, so even
        # a vacuum mesh yields a finite (huge) timestep rather than inf.
        mesh = make_uniform_mesh(levels=0)
        dt = global_timestep(mesh, eos)
        assert np.isfinite(dt) and dt > 0
