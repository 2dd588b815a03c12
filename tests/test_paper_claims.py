"""Structural claims the paper makes about the code, checked directly."""

import numpy as np
import pytest

from repro.distsim import RunConfig
from repro.machines import FUGAKU
from repro.scenarios.spec import ScenarioSpec


class TestKernelLaunchCounts:
    def test_more_than_ten_tasks_per_subgrid_per_step(self):
        """Paper SIV-B: 'we usually have multiple (> 10) kernel launches per
        sub-grid in each time-step.'  The distributed functional driver's
        task graph reproduces that granularity."""
        from tests.test_distributed_driver import build_mesh
        from repro.core.distributed import DistributedHydroDriver

        mesh, eos = build_mesh()
        driver = DistributedHydroDriver(
            mesh, eos, config=RunConfig(machine=FUGAKU, nodes=2)
        )
        result = driver.step(1e-3)
        tasks_per_subgrid = result.tasks_completed / mesh.n_subgrids()
        assert tasks_per_subgrid > 10

    def test_spec_encodes_the_claim(self):
        spec = ScenarioSpec(name="x", n_subgrids=10, max_level=2)
        assert spec.kernels_per_subgrid_per_step > 10


class TestNonAdaptiveTimestep:
    def test_all_levels_advance_with_one_dt(self):
        """Paper SIV-C: 'Octo-Tiger does not use adaptive time stepping' —
        the global dt is the minimum over all leaves, and every leaf
        advances by exactly that dt."""
        from repro.hydro import HydroIntegrator, IdealGasEOS, global_timestep
        from repro.octree import AmrMesh, Field

        eos = IdealGasEOS()
        mesh = AmrMesh(n=8, ghost=2, domain_size=2.0)
        mesh.refine((0, 0))
        mesh.refine((1, 0))  # two leaf levels
        for leaf in mesh.leaves():
            leaf.subgrid.set_interior(Field.RHO, np.ones((8, 8, 8)))
            leaf.subgrid.set_interior(Field.EGAS, np.full((8, 8, 8), 2.5))
            leaf.subgrid.set_interior(
                Field.TAU, eos.tau_from_eint(np.full((8, 8, 8), 2.5))
            )
        dt_global = global_timestep(mesh, eos)
        # The fine level's own CFL limit is half the coarse one's; the
        # global dt equals the fine limit.
        from tests.oracles.hydro_step import cfl_timestep_subgrid

        fine = [l for l in mesh.leaves() if l.level == 2][0]
        coarse = [l for l in mesh.leaves() if l.level == 1][0]
        assert dt_global == pytest.approx(
            cfl_timestep_subgrid(fine.subgrid, fine.dx, eos)
        )
        assert dt_global < cfl_timestep_subgrid(coarse.subgrid, coarse.dx, eos)
        integ = HydroIntegrator(mesh, eos)
        used = integ.step()
        assert used == pytest.approx(dt_global)
        assert integ.time == pytest.approx(dt_global)


class TestSubgridSizeEight:
    def test_default_n_is_eight(self):
        """Paper SIV-C: 'N is typically 8'."""
        from repro.octree import AmrMesh, SubGrid

        assert AmrMesh().n == 8
        assert SubGrid().n == 8


@pytest.mark.slow
class TestBinaryOrbitStability:
    def test_dwd_omega_stable_over_steps(self):
        """The SCF binary in its co-rotating frame stays near-stationary:
        the inferred orbital frequency (from the tracer COMs) drifts little
        over several steps."""
        from repro.core import OctoTigerSim
        from repro.distsim.runconfig import RunConfig
        from repro.machines import FUGAKU
        from repro.octree import Field
        from repro.scenarios import dwd_scenario

        scenario = dwd_scenario(level=2, scf_grid=32)
        sim = OctoTigerSim(
            scenario.mesh, eos=scenario.eos, omega=scenario.omega,
            config=RunConfig(machine=FUGAKU, nodes=2),
        )

        def star_separation():
            coms = []
            for tracer in (Field.FRAC1, Field.FRAC2):
                weighted = np.zeros(3)
                total = 0.0
                for leaf in scenario.mesh.leaves():
                    x, y, z = leaf.cell_centers()
                    w = leaf.subgrid.interior_view(tracer)
                    v = leaf.cell_volume
                    weighted += np.array(
                        [(w * x).sum(), (w * y).sum(), (w * z).sum()]
                    ) * v
                    total += float(w.sum()) * v
                coms.append(weighted / total)
            return float(np.linalg.norm(coms[0] - coms[1]))

        sep0 = star_separation()
        sim.run(3)
        sep1 = star_separation()
        # The separation changes by well under 10% over a few steps.
        assert abs(sep1 - sep0) / sep0 < 0.1
