"""Conserved-quantity diagnostics over the AMR mesh.

These are the invariants Octo-Tiger tracks: total mass, linear momentum,
gas energy (kinetic + internal), gravitational energy, z angular momentum,
centre of mass, and the tracer masses of the binary components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.octree.fields import Field
from repro.octree.mesh import AmrMesh
from repro.octree.node import NodeKey


@dataclass(frozen=True)
class Diagnostics:
    mass: float
    momentum: np.ndarray  # (3,)
    energy_gas: float
    energy_potential: float
    angular_momentum_z: float
    com: np.ndarray  # (3,)
    tracer_masses: np.ndarray  # (2,)


def conserved_totals(mesh: AmrMesh) -> Dict[str, float]:
    """Plain domain integrals of the conserved fields."""
    return {
        "mass": mesh.integral(Field.RHO),
        "sx": mesh.integral(Field.SX),
        "sy": mesh.integral(Field.SY),
        "sz": mesh.integral(Field.SZ),
        "egas": mesh.integral(Field.EGAS),
    }


def total_angular_momentum_z(mesh: AmrMesh) -> float:
    """L_z = integral (x s_y - y s_x) dV over leaf interiors."""
    total = 0.0
    for leaf in mesh.leaves():
        x, y, _ = leaf.cell_centers()
        sx = leaf.subgrid.interior_view(Field.SX)
        sy = leaf.subgrid.interior_view(Field.SY)
        total += float((x * sy - y * sx).sum()) * leaf.cell_volume
    return total


def center_of_mass(mesh: AmrMesh) -> np.ndarray:
    weighted = np.zeros(3)
    total = 0.0
    for leaf in mesh.leaves():
        x, y, z = leaf.cell_centers()
        rho = leaf.subgrid.interior_view(Field.RHO)
        v = leaf.cell_volume
        weighted[0] += float((rho * x).sum()) * v
        weighted[1] += float((rho * y).sum()) * v
        weighted[2] += float((rho * z).sum()) * v
        total += float(rho.sum()) * v
    return weighted / total if total > 0 else weighted


def diagnostics(
    mesh: AmrMesh, phi: Optional[Dict[NodeKey, np.ndarray]] = None
) -> Diagnostics:
    totals = conserved_totals(mesh)
    e_pot = 0.0
    if phi is not None:
        for leaf in mesh.leaves():
            rho = leaf.subgrid.interior_view(Field.RHO)
            e_pot += 0.5 * float((rho * phi[leaf.key]).sum()) * leaf.cell_volume
    return Diagnostics(
        mass=totals["mass"],
        momentum=np.array([totals["sx"], totals["sy"], totals["sz"]]),
        energy_gas=totals["egas"],
        energy_potential=e_pot,
        angular_momentum_z=total_angular_momentum_z(mesh),
        com=center_of_mass(mesh),
        tracer_masses=np.array(
            [mesh.integral(Field.FRAC1), mesh.integral(Field.FRAC2)]
        ),
    )
