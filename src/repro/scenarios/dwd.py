"""Double-white-dwarf merger scenario, mass ratio q = 0.7 (Figs. 5a/5b, 1).

White dwarfs are n = 1.5 polytropes (non-relativistic degenerate electron
gas), which is exactly the regime the SCF solver handles robustly.  The
builder tunes the two maximum densities so the converged mass ratio lands
near the paper's q = 0.7, with the donor close to filling its Roche lobe —
the configuration that undergoes dynamical mass transfer (paper Fig. 1).

The paper's Perlmutter/Fugaku comparison uses refinement level 12 with
5 150 720 sub-grids, chosen to fill one 28 GB Fugaku node; that workload is
returned as an analytic spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hydro.eos import IdealGasEOS
from repro.octree.mesh import AmrMesh
from repro.scenarios.spec import ScenarioSpec, workload_from_mesh
from repro.scf.scf import BinarySCF, ScfResult

#: Paper workload for the Perlmutter comparison.
DWD_SUBGRIDS = 5_150_720
DWD_CELLS = DWD_SUBGRIDS * 512

MAX_CONSTRUCTIBLE_LEVEL = 4


@dataclass
class DwdScenario:
    mesh: Optional[AmrMesh]
    spec: ScenarioSpec
    omega: float
    eos: IdealGasEOS
    mass_ratio: float
    scf: Optional[ScfResult] = None


def _paper_spec() -> ScenarioSpec:
    return ScenarioSpec(name="dwd", n_subgrids=DWD_SUBGRIDS, max_level=12)


def dwd_scenario(
    level: int = 2,
    scf_grid: int = 48,
    rho_max_accretor: float = 1.0,
    rho_max_donor: float = 0.8,
    refine_threshold: float = 1e-3,
    gamma: float = 5.0 / 3.0,
    build_mesh: Optional[bool] = None,
) -> DwdScenario:
    """Build the q ~ 0.7 DWD scenario (or its paper-scale spec)."""
    if build_mesh is None:
        build_mesh = level <= MAX_CONSTRUCTIBLE_LEVEL
    if not build_mesh:
        return DwdScenario(
            mesh=None,
            spec=_paper_spec(),
            omega=0.0,
            eos=IdealGasEOS(gamma=gamma),
            mass_ratio=0.7,
        )

    eos = IdealGasEOS(gamma=gamma)
    # Accretor on the left (more massive, compact), donor on the right
    # stretching towards its Roche lobe.
    # Geometry tuned so the converged mass ratio lands at q ~ 0.70
    # (see tests/test_scenarios.py); the donor is the larger, less dense,
    # Roche-lobe-filling star on the right.
    scf = BinarySCF(
        x_a=-0.72,
        x_b=-0.26,
        x_c=0.42,
        rho_max_1=rho_max_accretor,
        rho_max_2=rho_max_donor,
        poly_n_1=1.5,
        poly_n_2=1.5,
        contact=False,
        n=scf_grid,
        box_size=2.0,
    )
    model = scf.run()
    m1, m2 = model.star_masses
    q = m2 / m1 if m1 > 0 else 0.0

    mesh = model.to_mesh(eos, level, refine_threshold, model.omega, model.split_x)
    spec = workload_from_mesh(mesh, name=f"dwd_l{level}")
    return DwdScenario(
        mesh=mesh, spec=spec, omega=model.omega, eos=eos, mass_ratio=q, scf=model
    )
