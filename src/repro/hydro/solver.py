"""Per-sub-grid flux divergence: the core hydro compute kernel.

``dudt_subgrid`` is the analogue of Octo-Tiger's hydro flux kernel: given a
sub-grid with filled ghost layers it reconstructs primitives, solves Riemann
problems on every interior face along the three axes, and returns the flux
divergence over the interior cells.  All operations are vectorised NumPy
over whole face arrays.

Ghost-width accounting: with ``ghost = 2`` and ``M = N + 4`` cells per edge,
reconstruction along an axis yields exactly the ``N + 1`` interior faces the
divergence needs — this identity is asserted, because it silently breaks if
somebody changes the stencil without widening the ghosts.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.hydro.eos import IdealGasEOS
from repro.hydro.reconstruct import reconstruct_axis
from repro.hydro.riemann import PRIM_KEYS, hll_flux
from repro.octree.fields import Field, NFIELDS
from repro.octree.subgrid import SubGrid


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


def dudt_subgrid(
    sg: SubGrid,
    dx: float,
    eos: IdealGasEOS,
    return_boundary_fluxes: bool = False,
):
    """Flux divergence over the interior of one sub-grid.

    Requires ghost layers to be filled.  Returns ``(dudt, max_signal)`` with
    ``dudt`` of shape ``(NFIELDS, N, N, N)`` and ``max_signal`` the largest
    wave speed encountered (for the CFL condition).

    With ``return_boundary_fluxes=True`` a third element is returned: a dict
    ``{(axis, side): (NFIELDS, N, N) flux array}`` of the fluxes through the
    six outer faces — the raw material of the flux-correction (refluxing)
    step that keeps conservation exact across coarse-fine AMR boundaries.
    """
    if sg.ghost < 2:
        raise ValueError("MUSCL stencil needs ghost width >= 2")
    n, g = sg.n, sg.ghost
    w = primitives_from_conserved(sg.data, eos)
    dudt = np.zeros((NFIELDS, n, n, n))
    max_signal = 0.0
    interior = slice(g, g + n)
    boundary: dict = {}

    for axis in range(3):
        w_left: Dict[str, np.ndarray] = {}
        w_right: Dict[str, np.ndarray] = {}
        for key in PRIM_KEYS:
            # Trim the stencil along the axis so reconstruction emits exactly
            # the N + 1 interior faces: cells [g-2, g+n+2) feed faces
            # between cell pairs (g-1, g) ... (g+n-1, g+n).
            index = [slice(None)] * 3
            index[axis] = slice(g - 2, g + n + 2)
            wl, wr = reconstruct_axis(w[key][tuple(index)], axis)
            w_left[key] = wl
            w_right[key] = wr
        assert w_left["rho"].shape[axis] == n + 1, "stencil accounting broke"

        flux, signal = hll_flux(w_left, w_right, axis, eos)
        # Keep only interior transverse positions (corner-region values use
        # unfilled ghosts and are garbage by construction).
        trans = [interior] * 3
        trans[axis] = slice(None)
        flux = flux[(slice(None),) + tuple(trans)]
        signal = signal[tuple(trans)]
        max_signal = max(max_signal, float(signal.max()))

        lo = [slice(None)] * 4
        hi = [slice(None)] * 4
        lo[axis + 1] = slice(0, n)
        hi[axis + 1] = slice(1, n + 1)
        dudt -= (flux[tuple(hi)] - flux[tuple(lo)]) / dx

        if return_boundary_fluxes:
            first = [slice(None)] * 4
            last = [slice(None)] * 4
            first[axis + 1] = 0
            last[axis + 1] = n
            boundary[(axis, 0)] = flux[tuple(first)].copy()
            boundary[(axis, 1)] = flux[tuple(last)].copy()

    if return_boundary_fluxes:
        return dudt, max_signal, boundary
    return dudt, max_signal
