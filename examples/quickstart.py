#!/usr/bin/env python
"""Quickstart: build a rotating star, evolve it, watch the invariants.

Runs in about a minute on a laptop: a self-consistent-field equilibrium is
deposited onto a density-refined AMR octree and advanced a few RK3 steps
with FMM gravity in the co-rotating frame, while the virtual runtime prices
every step on a Fugaku node.

    python examples/quickstart.py
"""

from repro.core import OctoTigerSim
from repro.core.diagnostics import diagnostics
from repro.distsim import RunConfig
from repro.machines import FUGAKU
from repro.scenarios import rotating_star


def main() -> None:
    print("Building the rotating-star scenario (SCF + AMR deposit)...")
    scenario = rotating_star(level=2, scf_grid=32)
    mesh = scenario.mesh
    print(
        f"  mesh: {mesh.n_subgrids()} sub-grids, {mesh.n_cells()} cells, "
        f"max level {mesh.max_level()}"
    )
    print(f"  equilibrium omega = {scenario.omega:.4f} (code units)")

    sim = OctoTigerSim(
        mesh,
        eos=scenario.eos,
        omega=scenario.omega,
        config=RunConfig(machine=FUGAKU, nodes=4),
    )
    before = diagnostics(mesh)
    print(f"  initial mass {before.mass:.6f}, gas energy {before.energy_gas:.6f}")

    print("\nEvolving 3 steps (hydro RK3 + FMM gravity each step)...")
    for record in sim.run(3):
        print(
            f"  step {record.step}: dt={record.dt:.3e}  "
            f"virtual {record.virtual_seconds * 1e3:.2f} ms/step on "
            f"{sim.config.nodes}x Fugaku nodes -> "
            f"{record.cells_per_second:.3e} cells/s, "
            f"util {record.utilization:.0%}, {record.node_power_w:.0f} W/node"
        )

    after = diagnostics(mesh)
    print("\nConservation over the run:")
    print(f"  mass drift      : {after.mass - before.mass:+.3e}")
    print(f"  momentum drift  : {abs(after.momentum - before.momentum).max():+.3e}")
    print(f"  L_z drift       : {after.angular_momentum_z - before.angular_momentum_z:+.3e}")
    print("\nPer-kernel counters (APEX analog):")
    print(sim.counters.report())


if __name__ == "__main__":
    main()
