"""The rotating-star problem (the paper's scaling scenario, Figs. 6-10).

A single rotating polytrope, evolved in the co-rotating frame.  The paper
uses refinement levels 5, 6 and 7 (2.5 M / 14.2 M / 88.6 M cells); those are
described analytically for the performance simulator, while levels up to 3
are actually constructed and evolvable on one machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.hydro.eos import IdealGasEOS
from repro.octree.mesh import AmrMesh
from repro.scenarios.spec import ScenarioSpec, workload_from_mesh
from repro.scf.scf import ScfResult, SingleStarSCF

#: Cell counts the paper reports for the rotating star at each level.
ROTATING_STAR_LEVELS = {
    5: 2_500_000,
    6: 14_200_000,
    7: 88_600_000,
}

#: Largest level this builder will actually construct in memory.
MAX_CONSTRUCTIBLE_LEVEL = 4


@dataclass
class RotatingStar:
    """A built scenario: mesh + workload spec + model metadata."""

    mesh: Optional[AmrMesh]
    spec: ScenarioSpec
    omega: float
    eos: IdealGasEOS
    scf: Optional[ScfResult] = None


def _spec_for_level(level: int, n_subgrids: int) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"rotating_star_l{level}",
        n_subgrids=n_subgrids,
        max_level=level,
    )


def rotating_star(
    level: int = 2,
    rho_max: float = 1.0,
    r_equator: float = 0.5,
    r_pole: float = 0.45,
    poly_n: float = 1.5,
    scf_grid: int = 48,
    refine_threshold: float = 1e-3,
    gamma: float = 5.0 / 3.0,
    build_mesh: Optional[bool] = None,
) -> RotatingStar:
    """Build the rotating-star scenario at a refinement level.

    For ``level`` in :data:`ROTATING_STAR_LEVELS` (or any level above
    :data:`MAX_CONSTRUCTIBLE_LEVEL`) only the workload spec is produced —
    those are performance-study sizes.  Smaller levels build a real AMR
    mesh: a converged SCF model, deposited and density-refined.
    """
    if build_mesh is None:
        build_mesh = level <= MAX_CONSTRUCTIBLE_LEVEL

    if not build_mesh:
        cells = ROTATING_STAR_LEVELS.get(level)
        if cells is None:
            # Geometric growth consistent with the paper's level 5 -> 7 ratio.
            cells = int(2_500_000 * 5.95 ** (level - 5))
        n_subgrids = cells // 512
        return RotatingStar(
            mesh=None,
            spec=_spec_for_level(level, n_subgrids),
            omega=0.0,
            eos=IdealGasEOS(gamma=gamma),
        )

    eos = IdealGasEOS(gamma=gamma)
    scf = SingleStarSCF(
        rho_max=rho_max,
        r_equator=r_equator,
        r_pole=r_pole,
        poly_n=poly_n,
        n=scf_grid,
        box_size=2.0,
    )
    model = scf.run()
    mesh = model.to_mesh(eos, level, refine_threshold * rho_max, model.omega)
    spec = workload_from_mesh(mesh, name=f"rotating_star_l{level}")
    return RotatingStar(mesh=mesh, spec=spec, omega=model.omega, eos=eos, scf=model)
