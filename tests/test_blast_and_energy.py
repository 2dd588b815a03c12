"""Sedov blast validation and virial diagnostics."""

import numpy as np
import pytest

from repro.gravity import FmmSolver
from repro.hydro import HydroIntegrator
from repro.octree import Field
from repro.scenarios import sedov_blast

from tests.conftest import fill_gaussian, make_uniform_mesh
from tests.oracles.energy import (
    internal_energy,
    kinetic_energy,
    potential_energy,
    virial_diagnostics,
)


class TestSedovSetup:
    def test_total_energy_deposited_exactly(self):
        scenario = sedov_blast(levels=1, energy=2.5, background_pressure=0.0)
        assert scenario.mesh.integral(Field.EGAS) == pytest.approx(2.5, rel=1e-12)

    def test_uniform_density(self):
        scenario = sedov_blast(levels=1, rho0=0.7)
        assert scenario.mesh.integral(Field.RHO) == pytest.approx(
            0.7 * 8.0, rel=1e-12
        )

    def test_deposit_radius_guard(self):
        with pytest.raises(ValueError):
            sedov_blast(levels=1, deposit_radius_cells=0.01)

    def test_sedov_radius_formula(self):
        scenario = sedov_blast(levels=1)
        assert scenario.sedov_radius(1.0) == pytest.approx(1.15)
        assert scenario.sedov_radius(4.0) / scenario.sedov_radius(1.0) == pytest.approx(
            4.0**0.4
        )


@pytest.mark.slow
class TestSedovEvolution:
    def test_shock_tracks_selfsimilar_solution(self):
        scenario = sedov_blast(levels=2)
        integ = HydroIntegrator(scenario.mesh, scenario.eos)
        m0 = scenario.mesh.integral(Field.RHO)
        e0 = scenario.mesh.integral(Field.EGAS)
        while integ.time < 0.02:
            integ.step(0.75 * integ.timestep())  # Courant number 0.3
        # Conservation through a strong shock.
        assert scenario.mesh.integral(Field.RHO) == pytest.approx(m0, rel=1e-12)
        assert scenario.mesh.integral(Field.EGAS) == pytest.approx(e0, rel=1e-12)
        # Shock radius within 15% of the Sedov-Taylor value once the blast
        # has forgotten the finite deposit region.
        r = scenario.shock_radius()
        expected = scenario.sedov_radius(integ.time)
        assert abs(r - expected) / expected < 0.15

    def test_blast_stays_spherical(self):
        scenario = sedov_blast(levels=2)
        integ = HydroIntegrator(scenario.mesh, scenario.eos)
        for _ in range(10):
            integ.step(0.75 * integ.timestep())  # Courant number 0.3
        # The octant-averaged shell radii agree (symmetry of the scheme).
        radii = []
        for sx in (-1, 1):
            num = den = 0.0
            for leaf in scenario.mesh.leaves():
                x, y, z = leaf.cell_centers()
                rho = leaf.subgrid.interior_view(Field.RHO)
                half = x * sx > 0
                shell = (rho > 1.05) & half
                if shell.any():
                    r = np.sqrt(x**2 + y**2 + z**2)
                    w = (rho - 1.0)[shell]
                    num += float((r[shell] * w).sum())
                    den += float(w.sum())
            radii.append(num / den)
        assert radii[0] == pytest.approx(radii[1], rel=1e-10)


class TestVirial:
    def test_kinetic_energy_of_rigid_flow(self):
        mesh = make_uniform_mesh(levels=1)
        for leaf in mesh.leaves():
            leaf.subgrid.set_interior(Field.RHO, np.full((8, 8, 8), 2.0))
            leaf.subgrid.set_interior(Field.SX, np.full((8, 8, 8), 1.0))
        # E_kin = 1/2 s^2 / rho * V = 0.5 * 1 / 2 * 8.
        assert kinetic_energy(mesh) == pytest.approx(2.0)

    def test_internal_energy_subtracts_kinetic(self):
        mesh = make_uniform_mesh(levels=1)
        for leaf in mesh.leaves():
            leaf.subgrid.set_interior(Field.RHO, np.ones((8, 8, 8)))
            leaf.subgrid.set_interior(Field.SX, np.ones((8, 8, 8)))
            leaf.subgrid.set_interior(Field.EGAS, np.full((8, 8, 8), 3.0))
        # eint = 3 - 0.5 per cell, over volume 8.
        assert internal_energy(mesh) == pytest.approx(2.5 * 8.0)

    def test_potential_energy_negative_for_bound_blob(self):
        mesh = make_uniform_mesh(levels=1)
        fill_gaussian(mesh)
        phi = FmmSolver().solve(mesh).phi
        assert potential_energy(mesh, phi) < 0.0

    def test_virial_diagnostics_bundle(self):
        mesh = make_uniform_mesh(levels=1)
        fill_gaussian(mesh)
        phi = FmmSolver().solve(mesh).phi
        v = virial_diagnostics(mesh, phi)
        assert v.kinetic == 0.0
        assert v.potential < 0.0
        assert v.virial_error >= 0.0

    @pytest.mark.slow
    def test_scf_equilibrium_roughly_virialised(self):
        from repro.scenarios import rotating_star

        scenario = rotating_star(level=2, scf_grid=32)
        phi = FmmSolver().solve(scenario.mesh).phi
        v = virial_diagnostics(scenario.mesh, phi)
        # The SCF model in its rotating frame: 2K + 2U + W balanced within
        # tens of percent at this resolution (K here excludes the frame's
        # rotational support, so the tolerance is loose but bounded).
        assert v.virial_error < 0.6
