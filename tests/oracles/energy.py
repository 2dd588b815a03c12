"""Test oracle: gravitational energy and virial diagnostics.

The scenario health checks of the tests: a stable equilibrium satisfies the
virial theorem (2 E_kin + 2 E_therm_trace + E_grav ~ 0 for the appropriate
measures); strong violation flags a broken initial model long before the
hydro blows up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.octree.fields import Field
from repro.octree.mesh import AmrMesh
from repro.octree.node import NodeKey


@dataclass(frozen=True)
class VirialDiagnostics:
    kinetic: float
    internal: float  # integral of eint dV (thermal energy)
    potential: float  # 1/2 integral rho phi dV

    @property
    def virial_sum(self) -> float:
        """2 E_kin + 3 (gamma - 1) E_int + E_pot, with the standard
        monatomic choice 3(gamma-1) = 2: 2 K + 2 U_th + W."""
        return 2.0 * self.kinetic + 2.0 * self.internal + self.potential

    @property
    def virial_error(self) -> float:
        """|virial sum| normalised by |E_pot| (0 for perfect equilibrium)."""
        scale = abs(self.potential)
        return abs(self.virial_sum) / scale if scale > 0 else abs(self.virial_sum)


def potential_energy(mesh: AmrMesh, phi: Dict[NodeKey, np.ndarray]) -> float:
    """W = 1/2 integral rho phi dV (each pair counted once)."""
    total = 0.0
    for leaf in mesh.leaves():
        rho = leaf.subgrid.interior_view(Field.RHO)
        total += 0.5 * float((rho * phi[leaf.key]).sum()) * leaf.cell_volume
    return total


def kinetic_energy(mesh: AmrMesh) -> float:
    total = 0.0
    for leaf in mesh.leaves():
        sg = leaf.subgrid
        rho = np.maximum(sg.interior_view(Field.RHO), 1e-300)
        s2 = (
            sg.interior_view(Field.SX) ** 2
            + sg.interior_view(Field.SY) ** 2
            + sg.interior_view(Field.SZ) ** 2
        )
        total += 0.5 * float((s2 / rho).sum()) * leaf.cell_volume
    return total


def internal_energy(mesh: AmrMesh) -> float:
    """Thermal energy: E_gas minus the kinetic part."""
    total = 0.0
    for leaf in mesh.leaves():
        sg = leaf.subgrid
        rho = np.maximum(sg.interior_view(Field.RHO), 1e-300)
        s2 = (
            sg.interior_view(Field.SX) ** 2
            + sg.interior_view(Field.SY) ** 2
            + sg.interior_view(Field.SZ) ** 2
        )
        eint = sg.interior_view(Field.EGAS) - 0.5 * s2 / rho
        total += float(np.maximum(eint, 0.0).sum()) * leaf.cell_volume
    return total


def virial_diagnostics(
    mesh: AmrMesh, phi: Dict[NodeKey, np.ndarray]
) -> VirialDiagnostics:
    return VirialDiagnostics(
        kinetic=kinetic_energy(mesh),
        internal=internal_energy(mesh),
        potential=potential_energy(mesh, phi),
    )
