"""Primitive variables of the conserved state.

The one conversion every hydro kernel starts from: the stacked kernels of
:mod:`repro.hydro.plan` evaluate :func:`primitives_from_conserved` on whole
sub-batches, and :mod:`repro.hydro.timestep` on one leaf interior.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.hydro.eos import IdealGasEOS
from repro.octree.fields import Field

#: Primitive variable keys carried through reconstruction.
PRIM_KEYS = ("rho", "vx", "vy", "vz", "p", "tau", "f1", "f2")


def primitives_from_conserved(
    u: np.ndarray, eos: IdealGasEOS
) -> Dict[str, np.ndarray]:
    """Primitive variables from a conserved block of shape (NFIELDS, ...)."""
    rho = np.maximum(u[Field.RHO], eos.rho_floor)
    vx = u[Field.SX] / rho
    vy = u[Field.SY] / rho
    vz = u[Field.SZ] / rho
    kinetic = 0.5 * rho * (vx**2 + vy**2 + vz**2)
    eint = eos.dual_energy_eint(rho, u[Field.EGAS], kinetic, u[Field.TAU])
    return {
        "rho": rho,
        "vx": vx,
        "vy": vy,
        "vz": vz,
        "p": eos.pressure(rho, eint),
        "tau": u[Field.TAU],
        "f1": u[Field.FRAC1],
        "f2": u[Field.FRAC2],
    }
