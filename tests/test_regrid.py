"""Dynamic regridding: refinement, hysteresis, conservation, balance."""

import numpy as np
import pytest

from repro.octree import Field, regrid

from tests.conftest import DensityCriterion, fill_gaussian, make_uniform_mesh


def blob_mesh():
    mesh = make_uniform_mesh(levels=1)
    fill_gaussian(mesh, center=(0.4, 0.4, 0.4), width=0.02)
    return mesh


class TestDensityCriterion:
    def test_refines_dense_leaves_only(self):
        mesh = blob_mesh()
        result = regrid(mesh, DensityCriterion(refine_above=0.5), max_level=2)
        assert result.refined > 0
        mesh.check_invariants()
        # The finest leaves cluster around the blob.
        fine = [leaf for leaf in mesh.leaves() if leaf.level == 2]
        assert fine
        for leaf in fine:
            assert np.linalg.norm(leaf.center - np.array([0.4, 0.4, 0.4])) < 0.9

    def test_conserves_mass(self):
        mesh = blob_mesh()
        mass = mesh.total_mass()
        regrid(mesh, DensityCriterion(refine_above=0.5), max_level=3)
        assert mesh.total_mass() == pytest.approx(mass, rel=1e-12)

    def test_max_level_respected(self):
        mesh = blob_mesh()
        regrid(mesh, DensityCriterion(refine_above=1e-6), max_level=2)
        assert mesh.max_level() <= 2

    def test_coarsening_after_blob_vanishes(self):
        mesh = blob_mesh()
        criterion = DensityCriterion(refine_above=0.5)
        regrid(mesh, criterion, max_level=2)
        n_fine = mesh.n_subgrids()
        # Blow the gas away: all leaves drop below the coarsen threshold.
        for leaf in mesh.leaves():
            leaf.subgrid.set_interior(Field.RHO, np.full((8, 8, 8), 1e-9))
        mesh.restrict_all()
        result = regrid(mesh, criterion, max_level=2, min_level=1)
        assert result.coarsened > 0
        assert mesh.n_subgrids() < n_fine
        mesh.check_invariants()

    def test_hysteresis_prevents_flapping(self):
        # A leaf between the coarsen and refine thresholds is left alone.
        crit = DensityCriterion(refine_above=1.0, coarsen_below=0.1)
        mesh = make_uniform_mesh(levels=1)
        for leaf in mesh.leaves():
            leaf.subgrid.set_interior(Field.RHO, np.full((8, 8, 8), 0.5))
        result = regrid(mesh, crit, max_level=2, min_level=1)
        assert not result.changed


class TestDriverIntegration:
    @pytest.mark.slow
    def test_driver_regrid_invalidates_workload(self):
        from repro.core import OctoTigerSim
        from repro.distsim.runconfig import RunConfig
        from repro.machines import FUGAKU
        from repro.scenarios import rotating_star

        scenario = rotating_star(level=2, scf_grid=32)
        sim = OctoTigerSim(
            scenario.mesh, eos=scenario.eos, gravity=False,
            config=RunConfig(machine=FUGAKU, nodes=2),
        )
        before = sim.spec.n_subgrids
        result = sim.regrid(DensityCriterion(refine_above=1e-4), max_level=3)
        if result.changed:
            assert sim.spec.n_subgrids != before
            assert sim.counters.count("regrid.refined") == 1
        scenario.mesh.check_invariants()
