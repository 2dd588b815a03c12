"""V1309 Scorpii: a contact binary of two main-sequence stars (Figs. 4a/4b).

The paper's production runs use 17 million sub-grids.  The laptop-scale
builder produces a near-contact binary: a detached SCF solution whose inner
boundary point sits close to L1, overlaid with a low-density common envelope
filling the equipotential surface just above the L1 saddle.

Substitutions versus the real V1309 model (documented in DESIGN.md):
the components use n = 1.5 polytropes rather than the bi-polytropic n = 3
MS structure (the high-n SCF does not converge at the coarse grids used
here), and the common envelope is painted onto the converged detached model
rather than solved as a shared-constant equilibrium.  Both substitutions
preserve what the performance paper needs — a density-refined AMR mesh of
a tight binary with mass around both components and a rotating frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hydro.eos import IdealGasEOS
from repro.octree.mesh import AmrMesh
from repro.scenarios.spec import ScenarioSpec, workload_from_mesh
from repro.scf.scf import BinarySCF, ScfResult

#: Paper workload: 17 million sub-grids.
V1309_CELLS = 17_000_000 * 512
V1309_SUBGRIDS = 17_000_000

MAX_CONSTRUCTIBLE_LEVEL = 4


@dataclass
class V1309Scenario:
    mesh: Optional[AmrMesh]
    spec: ScenarioSpec
    omega: float
    eos: IdealGasEOS
    scf: Optional[ScfResult] = None


def _paper_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="v1309",
        n_subgrids=V1309_SUBGRIDS,
        max_level=11,
    )


def v1309_scenario(
    level: int = 2,
    scf_grid: int = 48,
    envelope_fraction: float = 0.02,
    refine_threshold: float = 1e-3,
    gamma: float = 5.0 / 3.0,
    build_mesh: Optional[bool] = None,
) -> V1309Scenario:
    """Build the V1309 contact-binary scenario.

    ``build_mesh=False`` (implied for large levels) returns the paper-scale
    workload spec only.
    """
    if build_mesh is None:
        build_mesh = level <= MAX_CONSTRUCTIBLE_LEVEL
    if not build_mesh:
        return V1309Scenario(
            mesh=None, spec=_paper_spec(), omega=0.0, eos=IdealGasEOS(gamma=gamma)
        )

    eos = IdealGasEOS(gamma=gamma)
    # Near-contact geometry: star 1 (primary) spans [-0.70, -0.08]; its
    # inner edge sits near the L1 region; the secondary's surface is pinned
    # at +0.52.
    scf = BinarySCF(
        x_a=-0.70,
        x_b=-0.08,
        x_c=0.52,
        rho_max_1=1.0,
        rho_max_2=0.6,
        poly_n_1=1.5,
        poly_n_2=1.5,
        contact=False,
        n=scf_grid,
        box_size=2.0,
    )
    model = scf.run()
    _overlay_common_envelope(model, envelope_fraction)

    mesh = model.to_mesh(eos, level, refine_threshold, model.omega, model.split_x)
    spec = workload_from_mesh(mesh, name=f"v1309_l{level}")
    return V1309Scenario(
        mesh=mesh, spec=spec, omega=model.omega, eos=eos, scf=model
    )


def _overlay_common_envelope(model: ScfResult, envelope_fraction: float) -> None:
    """Paint a common envelope just above the L1 equipotential.

    The envelope density is ``envelope_fraction`` of the local
    enthalpy-implied density inside the equipotential shell between the L1
    saddle value and a slightly higher cut, bounded to the binary region.
    Mutates ``model.rho``.
    """
    if envelope_fraction <= 0.0:
        return
    n = model.n
    c = model.axis
    x, y, z = model.cell_centers()
    r_cyl2 = (x - model.x_com) ** 2 + y**2
    phi_eff = model.phi - 0.5 * model.omega**2 * r_cyl2

    j = n // 2
    split = model.split_x if model.split_x is not None else 0.0
    i_split = int(np.clip(np.searchsorted(c, split), 0, n - 1))
    phi_l1 = float(phi_eff[i_split, j, j])

    # Shell: just above the saddle, within the binary's spherical extent.
    r2 = (x - model.x_com) ** 2 + y**2 + z**2
    r_max = 0.9 * model.box_size / 2.0
    shell = (phi_eff < phi_l1 * 0.92) & (r2 < r_max**2)
    rho_env = envelope_fraction * float(model.rho.max()) * np.clip(
        (phi_l1 * 0.92 - phi_eff) / abs(phi_l1), 0.0, 1.0
    )
    model.rho = np.where(shell, np.maximum(model.rho, rho_env), model.rho)
