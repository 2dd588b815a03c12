"""Flux correction at coarse-fine boundaries (refluxing)."""

import numpy as np
import pytest

from repro.hydro import HydroIntegrator, IdealGasEOS
from repro.octree import AmrMesh, Field

from tests.oracles.ghost import fill_all_ghosts
from tests.oracles.hydro_step import apply_flux_corrections, dudt_subgrid


def adaptive_blob_mesh(with_velocity=True):
    """One refined corner; a smooth blob straddling the AMR boundary."""
    eos = IdealGasEOS()
    mesh = AmrMesh(n=8, ghost=2, domain_size=2.0)
    mesh.refine((0, 0))
    mesh.refine((1, 0))
    for leaf in mesh.leaves():
        x, y, z = leaf.cell_centers()
        rho = 1.0 + 0.5 * np.exp(-((x + 0.5) ** 2 + (y + 0.5) ** 2 + (z + 0.5) ** 2) / 0.05)
        eint = np.full_like(rho, 2.5)
        leaf.subgrid.set_interior(Field.RHO, rho)
        leaf.subgrid.set_interior(Field.EGAS, eint)
        leaf.subgrid.set_interior(Field.TAU, eos.tau_from_eint(eint))
        if with_velocity:
            leaf.subgrid.set_interior(Field.SX, 0.1 * rho * np.sin(np.pi * y))
    mesh.restrict_all()
    return mesh, eos


def rhs_and_fluxes(mesh, eos):
    fill_all_ghosts(mesh)
    rhs, fluxes = {}, {}
    for leaf in mesh.leaves():
        d, _, f = dudt_subgrid(leaf.subgrid, leaf.dx, eos, return_boundary_fluxes=True)
        rhs[leaf.key] = d
        fluxes[leaf.key] = f
    return rhs, fluxes


def boundary_flux_integral(mesh, fluxes, field):
    """Net outflow of one field through the physical domain boundary."""
    total = 0.0
    for leaf in mesh.leaves():
        area = leaf.dx**2
        for axis in range(3):
            for side in (0, 1):
                kind, _ = mesh.face_neighbor(leaf, axis, side)
                if kind == "boundary":
                    f = float(fluxes[leaf.key][(axis, side)][field].sum()) * area
                    total += f if side == 1 else -f
    return total


class TestDiscreteConservationIdentity:
    @pytest.mark.parametrize("field", [Field.RHO, Field.SX, Field.EGAS])
    def test_rhs_total_equals_boundary_flux(self, field):
        """After reflux, the interior budget equals the boundary integral
        to machine precision — the defining property of the correction."""
        mesh, eos = adaptive_blob_mesh()
        rhs, fluxes = rhs_and_fluxes(mesh, eos)
        apply_flux_corrections(mesh, rhs, fluxes)
        interior = sum(
            float(rhs[l.key][field].sum()) * l.cell_volume for l in mesh.leaves()
        )
        boundary = boundary_flux_integral(mesh, fluxes, field)
        scale = max(abs(interior), abs(boundary), 1e-3)
        assert interior + boundary == pytest.approx(0.0, abs=1e-13 * scale + 1e-16)

    def test_identity_fails_without_reflux(self):
        mesh, eos = adaptive_blob_mesh()
        rhs, fluxes = rhs_and_fluxes(mesh, eos)
        interior = sum(
            float(rhs[l.key][Field.RHO].sum()) * l.cell_volume for l in mesh.leaves()
        )
        boundary = boundary_flux_integral(mesh, fluxes, Field.RHO)
        assert abs(interior + boundary) > 1e-6  # the AMR leak is real

    def test_face_count(self):
        mesh, eos = adaptive_blob_mesh()
        rhs, fluxes = rhs_and_fluxes(mesh, eos)
        # The refined corner node has 3 interior faces -> 3 coarse-fine faces.
        assert apply_flux_corrections(mesh, rhs, fluxes) == 3

    def test_uniform_mesh_untouched(self):
        eos = IdealGasEOS()
        mesh = AmrMesh(n=8, ghost=2, domain_size=2.0)
        mesh.refine((0, 0))
        for leaf in mesh.leaves():
            leaf.subgrid.set_interior(Field.RHO, np.ones((8, 8, 8)))
            leaf.subgrid.set_interior(Field.EGAS, np.full((8, 8, 8), 2.5))
        rhs, fluxes = rhs_and_fluxes(mesh, eos)
        assert apply_flux_corrections(mesh, rhs, fluxes) == 0


class TestIntegratorIntegration:
    def test_reflux_improves_multi_step_conservation(self):
        mesh, eos = adaptive_blob_mesh(with_velocity=False)
        integ = HydroIntegrator(mesh, eos)
        m0 = mesh.integral(Field.RHO)
        for _ in range(3):
            integ.step()
        # With zero initial velocity the boundary contributes nothing for a
        # few steps, so any drift is the AMR leak.  Refluxed, the drift of
        # this mass (m0 = 8.03) measures 0.0; without the correction it
        # was 1.5e-5.  The bound leaves room for a few ulps of summation.
        assert abs(mesh.integral(Field.RHO) - m0) < 1e-13

    def test_faces_refluxed_counter(self):
        mesh, eos = adaptive_blob_mesh()
        integ = HydroIntegrator(mesh, eos)
        integ.step()
        assert integ.faces_refluxed == 9  # 3 faces x 3 RK stages

    def test_uniform_state_still_steady_with_reflux(self):
        eos = IdealGasEOS()
        mesh = AmrMesh(n=8, ghost=2, domain_size=2.0)
        mesh.refine((0, 0))
        mesh.refine((1, 0))
        for leaf in mesh.leaves():
            leaf.subgrid.set_interior(Field.RHO, np.ones((8, 8, 8)))
            leaf.subgrid.set_interior(Field.EGAS, np.full((8, 8, 8), 2.5))
            leaf.subgrid.set_interior(
                Field.TAU, eos.tau_from_eint(np.full((8, 8, 8), 2.5))
            )
        mesh.restrict_all()
        integ = HydroIntegrator(mesh, eos)
        integ.step()
        for leaf in mesh.leaves():
            assert np.allclose(leaf.subgrid.interior_view(Field.RHO), 1.0, atol=1e-12)
