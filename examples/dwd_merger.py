#!/usr/bin/env python
"""The q = 0.7 double-white-dwarf scenario (paper SIII-B, Fig. 1).

Builds the DWD binary with the SCF solver, checks the donor against its
Roche lobe, evolves a few orbits' worth of steps in the co-rotating frame
and tracks the two stars through their tracer fields — the configuration
that, run long enough at production resolution, undergoes the dynamical
mass transfer of the paper's Fig. 1.

    python examples/dwd_merger.py [steps]
"""

import sys

import numpy as np

from repro.core import OctoTigerSim
from repro.core.diagnostics import diagnostics
from repro.distsim import RunConfig
from repro.machines import FUGAKU
from repro.scenarios import dwd_scenario
from repro.scf import roche_lobe_radius


def main(steps: int = 4) -> None:
    print("Building the q~0.7 DWD binary (SCF)...")
    scenario = dwd_scenario(level=2, scf_grid=32)
    mesh = scenario.mesh
    m1, m2 = scenario.scf.star_masses
    print(f"  masses: accretor {m1:.4f}, donor {m2:.4f}  (q = {scenario.mass_ratio:.3f})")
    print(f"  orbital omega = {scenario.omega:.4f}, period = {2 * np.pi / scenario.omega:.2f}")

    # Roche-lobe diagnostic for the donor.
    prof = scenario.scf.rho[:, scenario.scf.n // 2, scenario.scf.n // 2]
    axis = -1.0 + (2.0 / scenario.scf.n) * (np.arange(scenario.scf.n) + 0.5)
    right = np.where(axis >= scenario.scf.split_x, prof, 0.0)
    left = np.where(axis < scenario.scf.split_x, prof, 0.0)
    separation = axis[np.argmax(right)] - axis[np.argmax(left)]
    lobe = roche_lobe_radius(scenario.mass_ratio, separation)
    donor_radius = 0.5 * (right > 1e-4 * right.max()).sum() * (axis[1] - axis[0])
    print(
        f"  separation {separation:.3f}; donor radius ~{donor_radius:.3f} vs "
        f"Roche lobe {lobe:.3f} (fill factor {donor_radius / lobe:.2f})"
    )

    sim = OctoTigerSim(
        mesh, eos=scenario.eos, omega=scenario.omega,
        config=RunConfig(machine=FUGAKU, nodes=2),
    )
    before = diagnostics(mesh)
    print(f"\nEvolving {steps} steps...")
    for record in sim.run(steps):
        print(
            f"  step {record.step}: dt={record.dt:.3e}, "
            f"{record.cells_per_second:.3e} cells/s (virtual)"
        )
    after = diagnostics(mesh)
    print("\nBinary bookkeeping:")
    print(f"  total mass drift : {after.mass - before.mass:+.3e}")
    print(
        "  star masses (tracers): "
        f"{after.tracer_masses[0]:.5f} / {after.tracer_masses[1]:.5f} "
        f"(was {before.tracer_masses[0]:.5f} / {before.tracer_masses[1]:.5f})"
    )
    print(f"  COM displacement : {np.linalg.norm(after.com - before.com):.3e}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
