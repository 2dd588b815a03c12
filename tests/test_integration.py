"""End-to-end integration: scenarios evolved through the full stack.

These are the expensive tests that exercise SCF -> deposit -> AMR -> hydro +
FMM -> diagnostics together, checking the paper-level invariants (machine
precision conservation, stable equilibria, mass transfer direction).
"""

import numpy as np
import pytest

from repro.core import OctoTigerSim
from repro.core.diagnostics import diagnostics
from repro.distsim.runconfig import RunConfig
from repro.machines import FUGAKU
from repro.octree import Field

pytestmark = pytest.mark.slow


class TestRotatingStarEvolution:
    @pytest.fixture(scope="class")
    def evolved(self):
        from repro.scenarios import rotating_star

        scenario = rotating_star(level=2, scf_grid=32)
        sim = OctoTigerSim(
            scenario.mesh,
            eos=scenario.eos,
            omega=scenario.omega,
            config=RunConfig(machine=FUGAKU, nodes=4),
        )
        before = diagnostics(scenario.mesh)
        records = sim.run(3)
        after = diagnostics(scenario.mesh)
        return scenario, sim, before, after, records

    def test_mass_conserved_machine_precision(self, evolved):
        _, _, before, after, _ = evolved
        assert after.mass == pytest.approx(before.mass, rel=1e-12)

    def test_equilibrium_is_quiet(self, evolved):
        """An SCF equilibrium evolved in its own rotating frame stays put:
        the peak velocity remains small compared to the sound speed."""
        scenario, sim, _, _, _ = evolved
        vmax = 0.0
        cmax = 0.0
        for leaf in scenario.mesh.leaves():
            rho = np.maximum(leaf.subgrid.interior_view(Field.RHO), 1e-12)
            inside = rho > 1e-3 * rho.max()
            if not inside.any():
                continue
            v = np.abs(leaf.subgrid.interior_view(Field.SX) / rho)[inside].max()
            vmax = max(vmax, float(v))
            from repro.hydro.primitives import primitives_from_conserved

            s = leaf.subgrid.interior
            w = primitives_from_conserved(leaf.subgrid.data[:, s, s, s], sim.eos)
            cmax = max(cmax, float(sim.eos.sound_speed(w["rho"], w["p"])[inside].max()))
        assert vmax < 0.5 * cmax

    def test_records_consistent(self, evolved):
        _, sim, _, _, records = evolved
        assert len(records) == 3
        assert all(r.virtual_seconds > 0 for r in records)
        assert all(r.cells_per_second > 0 for r in records)


class TestDwdEvolution:
    def test_binary_holds_together_and_transfers_nothing_yet(self):
        from repro.scenarios import dwd_scenario

        scenario = dwd_scenario(level=2, scf_grid=32)
        sim = OctoTigerSim(
            scenario.mesh,
            eos=scenario.eos,
            omega=scenario.omega,
            config=RunConfig(machine=FUGAKU, nodes=2),
        )
        before = diagnostics(scenario.mesh)
        sim.run(2)
        after = diagnostics(scenario.mesh)
        assert after.mass == pytest.approx(before.mass, rel=1e-12)
        # Tracer masses identify the two stars and are conserved.
        np.testing.assert_allclose(
            after.tracer_masses, before.tracer_masses, rtol=1e-10
        )
        # The binary COM stays near the origin over a couple of steps.
        assert np.linalg.norm(after.com - before.com) < 0.02


class TestCheckpointRestartConsistency:
    def test_evolution_identical_after_restart(self, tmp_path):
        from repro.ioutil import load_checkpoint, save_checkpoint
        from repro.scenarios import rotating_star

        scenario = rotating_star(level=2, scf_grid=32)
        sim = OctoTigerSim(
            scenario.mesh, eos=scenario.eos, omega=scenario.omega
        )
        sim.step(dt=1e-3)
        path = save_checkpoint(scenario.mesh, tmp_path / "mid", time=sim.integrator.time)

        # Branch A: continue directly.
        sim.step(dt=1e-3)
        direct = {
            leaf.key: leaf.subgrid.interior_view(Field.RHO).copy()
            for leaf in scenario.mesh.leaves()
        }

        # Branch B: restart from the checkpoint and take the same step.
        restored, meta = load_checkpoint(path)
        sim2 = OctoTigerSim(restored, eos=scenario.eos, omega=scenario.omega)
        sim2.integrator.time = meta["time"]
        sim2.step(dt=1e-3)
        for key, rho in direct.items():
            np.testing.assert_allclose(
                restored.nodes[key].subgrid.interior_view(Field.RHO), rho,
                rtol=1e-12, atol=1e-14,
            )
