#!/usr/bin/env python
"""The V1309 Scorpii progenitor: a near-contact binary with a common
envelope (paper SIII-A).

Builds the scenario, shows the density structure along the line of centres,
evolves it briefly, and prices the paper's full 17 M sub-grid production
workload across the three machines of Fig. 4.

    python examples/v1309_contact_binary.py
"""

import numpy as np

from repro.core import OctoTigerSim
from repro.core.diagnostics import diagnostics
from repro.distsim import RunConfig, simulate_step
from repro.machines import FUGAKU, PIZ_DAINT, SUMMIT
from repro.scenarios import v1309_scenario


def main() -> None:
    print("Building the V1309 near-contact binary (SCF + envelope overlay)...")
    scenario = v1309_scenario(level=2, scf_grid=32)
    mesh = scenario.mesh
    print(f"  mesh: {mesh.n_subgrids()} sub-grids, omega = {scenario.omega:.4f}")

    # Density profile along the line of centres.
    model = scenario.scf
    j = model.n // 2
    axis = -1.0 + (2.0 / model.n) * (np.arange(model.n) + 0.5)
    profile = model.rho[:, j, j]
    print("\n  density along the line of centres:")
    for i in range(0, model.n, 2):
        bar = "#" * int(profile[i] / max(profile.max(), 1e-30) * 50)
        print(f"    x={axis[i]:+.2f}  {profile[i]:.4f}  {bar}")

    sim = OctoTigerSim(
        mesh, eos=scenario.eos, omega=scenario.omega,
        config=RunConfig(machine=FUGAKU, nodes=4),
    )
    before = diagnostics(mesh)
    print("\nEvolving 3 steps in the co-rotating frame...")
    sim.run(3)
    after = diagnostics(mesh)
    print(f"  mass drift {after.mass - before.mass:+.2e}; star tracer masses "
          f"{after.tracer_masses[0]:.4f}/{after.tracer_masses[1]:.4f}")

    print("\nPricing the paper's production workload (17 M sub-grids, Fig. 4):")
    production = v1309_scenario(level=11, build_mesh=False).spec
    for machine, nodes, gpu in ((SUMMIT, 16, True), (PIZ_DAINT, 16, True), (FUGAKU, 16, False)):
        result = simulate_step(
            production, RunConfig(machine=machine, nodes=nodes, use_gpus=gpu)
        )
        print(
            f"  {machine.name:<10} @ {nodes} nodes: "
            f"{result.subgrids_per_second:.3e} sub-grids/s "
            f"({result.job_power_w / 1e3:.1f} kW)"
        )


if __name__ == "__main__":
    main()
