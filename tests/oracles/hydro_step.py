"""Test oracle: the per-leaf hydro step the stacked kernels reproduce.

One leaf at a time, one primitive dict per face array, the plain SSP-RK3
loop: MUSCL reconstruction, HLL fluxes, flux divergence, source terms,
refluxing and the per-leaf CFL limit.  Every interpreter of the step
program runs the stacked kernels of :mod:`repro.hydro.plan` instead, and
must reproduce this bit for bit; the physics tests (Riemann fluxes,
limiter, source-term work, refluxing, the global timestep) pin its
numerics.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.hydro.eos import IdealGasEOS
from repro.hydro.integrator import _RK3_STAGES, HydroIntegrator
from repro.hydro.primitives import PRIM_KEYS, primitives_from_conserved
from repro.hydro.reflux import _restrict_face, _transverse_axes
from repro.hydro.timestep import CFL, max_signal_subgrid
from repro.octree.fields import NFIELDS, Field
from repro.octree.mesh import AmrMesh
from repro.octree.node import NodeKey, OctreeNode
from repro.octree.subgrid import SubGrid

from tests.oracles.ghost import fill_all_ghosts

_VEL = ("vx", "vy", "vz")

#: Per-leaf boundary fluxes: {(axis, side): (NFIELDS, N, N)}.
BoundaryFluxes = Dict[Tuple[int, int], np.ndarray]


# -- MUSCL reconstruction ------------------------------------------------------
def minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The minmod limiter: smaller magnitude if same sign, else zero."""
    same_sign = a * b > 0.0
    return np.where(same_sign, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def reconstruct_axis(w: np.ndarray, axis: int) -> Tuple[np.ndarray, np.ndarray]:
    """Face states from cell states along ``axis``.

    For a cell array of extent ``M`` along the axis there are ``M - 3``
    interior faces with both-side reconstructions available (faces between
    cells 1..M-2, since each side needs a limited slope using one neighbour
    on each side).

    Returns ``(w_left, w_right)``: the states immediately left/right of each
    such face, with extent ``M - 3`` along ``axis`` and unchanged extents
    elsewhere.  Face ``j`` (0-based) of the output sits between cells
    ``j + 1`` and ``j + 2`` of the input.
    """
    w = np.asarray(w)
    ax = axis % w.ndim

    def shift(lo: int, hi: int) -> np.ndarray:
        index = [slice(None)] * w.ndim
        index[ax] = slice(lo, w.shape[ax] + hi if hi < 0 else None)
        return w[tuple(index)]

    d_minus = shift(1, -1) - shift(0, -2)  # w[i] - w[i-1] for i in 1..M-2
    d_plus = shift(2, 0) - shift(1, -1)  # w[i+1] - w[i] for i in 1..M-2
    slope = 0.5 * minmod(d_minus, d_plus)  # limited half-slope of cells 1..M-2

    center = shift(1, -1)  # cells 1..M-2
    # Left state of face between cell i and i+1: w[i] + slope[i]
    # Right state of that face:                  w[i+1] - slope[i+1]
    def chop(arr: np.ndarray, lo: int, hi: int) -> np.ndarray:
        index = [slice(None)] * arr.ndim
        index[ax] = slice(lo, arr.shape[ax] + hi if hi < 0 else None)
        return arr[tuple(index)]

    w_left = chop(center + slope, 0, -1)
    w_right = chop(center - slope, 1, 0)
    return w_left, w_right


# -- HLL Riemann solver --------------------------------------------------------
def _conserved_from_prim(w: Dict[str, np.ndarray], eos: IdealGasEOS) -> np.ndarray:
    """Stack conserved fields (NFIELDS, ...) from primitive face states."""
    rho = np.maximum(w["rho"], eos.rho_floor)
    vx, vy, vz = w["vx"], w["vy"], w["vz"]
    kinetic = 0.5 * rho * (vx**2 + vy**2 + vz**2)
    eint = np.maximum(w["p"], 0.0) / (eos.gamma - 1.0)
    u = np.empty((NFIELDS,) + rho.shape, dtype=rho.dtype)
    u[Field.RHO] = rho
    u[Field.SX] = rho * vx
    u[Field.SY] = rho * vy
    u[Field.SZ] = rho * vz
    u[Field.EGAS] = kinetic + eint
    u[Field.TAU] = w["tau"]
    u[Field.FRAC1] = w["f1"]
    u[Field.FRAC2] = w["f2"]
    return u


def _physical_flux(
    u: np.ndarray, w: Dict[str, np.ndarray], axis: int
) -> np.ndarray:
    vel = w[_VEL[axis]]
    p = np.maximum(w["p"], 0.0)
    f = u * vel[None]
    f[Field.SX + axis] += p
    f[Field.EGAS] += p * vel
    return f


def hll_flux(
    w_left: Dict[str, np.ndarray],
    w_right: Dict[str, np.ndarray],
    axis: int,
    eos: IdealGasEOS,
) -> Tuple[np.ndarray, np.ndarray]:
    """HLL flux through faces given left/right primitive states.

    Returns ``(flux, max_signal)`` where ``flux`` has shape
    ``(NFIELDS,) + face_shape`` and ``max_signal`` is the largest wave speed
    (feeds the CFL condition).
    """
    ul = _conserved_from_prim(w_left, eos)
    ur = _conserved_from_prim(w_right, eos)
    fl = _physical_flux(ul, w_left, axis)
    fr = _physical_flux(ur, w_right, axis)

    cl = eos.sound_speed(w_left["rho"], w_left["p"])
    cr = eos.sound_speed(w_right["rho"], w_right["p"])
    vl = w_left[_VEL[axis]]
    vr = w_right[_VEL[axis]]

    s_left = np.minimum(vl - cl, vr - cr)
    s_right = np.maximum(vl + cl, vr + cr)

    # HLL average in the star region; clamp the denominator for the
    # degenerate s_left == s_right == 0 case (static vacuum).
    denom = s_right - s_left
    safe = np.where(np.abs(denom) > 1e-300, denom, 1.0)
    f_star = (
        s_right[None] * fl - s_left[None] * fr + (s_left * s_right)[None] * (ur - ul)
    ) / safe[None]

    flux = np.where(
        (s_left >= 0.0)[None], fl, np.where((s_right <= 0.0)[None], fr, f_star)
    )
    max_signal = np.maximum(np.abs(s_left), np.abs(s_right))
    return flux, max_signal


# -- flux divergence of one leaf -----------------------------------------------
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


# -- source terms --------------------------------------------------------------
def gravity_source(u: np.ndarray, g_accel: np.ndarray) -> np.ndarray:
    """Momentum and energy sources from the gravitational acceleration.

        ds_i/dt   += rho * g_i
        degas/dt  += s . g      (work done by gravity on the gas)

    ``u`` has shape (NFIELDS, ...) over interior cells; ``g_accel`` is
    (3, ...) matching.
    """
    out = np.zeros_like(u)
    rho = u[Field.RHO]
    out[Field.SX] = rho * g_accel[0]
    out[Field.SY] = rho * g_accel[1]
    out[Field.SZ] = rho * g_accel[2]
    out[Field.EGAS] = (
        u[Field.SX] * g_accel[0]
        + u[Field.SY] * g_accel[1]
        + u[Field.SZ] * g_accel[2]
    )
    return out


def rotating_frame_source(
    u: np.ndarray, omega: float, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Coriolis + centrifugal sources for rotation about the z axis.

    With Omega = omega * z_hat:

        a_coriolis    = -2 Omega x v   = ( 2 omega v_y, -2 omega v_x, 0)
        a_centrifugal = -Omega x (Omega x r) = omega^2 (x, y, 0)

    Momentum sources use momentum densities directly (rho * a); the energy
    source is s . a_centrifugal only — Coriolis acceleration is
    perpendicular to the velocity and does no work.
    """
    out = np.zeros_like(u)
    if omega == 0.0:
        return out
    rho = u[Field.RHO]
    sx, sy = u[Field.SX], u[Field.SY]
    cfx = omega**2 * x
    cfy = omega**2 * y
    out[Field.SX] = 2.0 * omega * sy + rho * cfx
    out[Field.SY] = -2.0 * omega * sx + rho * cfy
    out[Field.EGAS] = sx * cfx + sy * cfy
    return out


# -- refluxing -----------------------------------------------------------------
def apply_flux_corrections(
    mesh: AmrMesh,
    rhs: Dict[NodeKey, np.ndarray],
    boundary_fluxes: Dict[NodeKey, BoundaryFluxes],
) -> int:
    """Correct the coarse-side flux divergence at every coarse-fine face.

    ``rhs`` maps leaf keys to their (NFIELDS, N, N, N) dudt arrays (mutated
    in place); ``boundary_fluxes`` holds each leaf's outer-face fluxes from
    :func:`dudt_subgrid`.  Returns the number of faces
    corrected.
    """
    corrected = 0
    n = mesh.n
    half = n // 2
    for leaf in mesh.leaves():
        if leaf.key not in rhs:
            continue
        for axis in range(3):
            for side in (0, 1):
                kind, children = mesh.face_neighbor(leaf, axis, side)
                if kind != "fine":
                    continue
                coarse_flux = boundary_fluxes[leaf.key][(axis, side)]
                fine_flux = np.empty_like(coarse_flux)
                t1, t2 = _transverse_axes(axis)
                for child in children:
                    child_face = boundary_fluxes[child.key][(axis, 1 - side)]
                    block = _restrict_face(child_face)
                    b1 = (child.octant >> t1) & 1
                    b2 = (child.octant >> t2) & 1
                    fine_flux[
                        :,
                        b1 * half : (b1 + 1) * half,
                        b2 * half : (b2 + 1) * half,
                    ] = block

                delta = fine_flux - coarse_flux
                # dudt had -(F_high - F_low)/dx; replacing the face flux by
                # the restricted fine flux shifts the adjacent cell layer by
                # -delta/dx on the high side and +delta/dx on the low side.
                index = [slice(None)] * 4
                index[axis + 1] = n - 1 if side == 1 else 0
                sign = -1.0 if side == 1 else 1.0
                rhs[leaf.key][tuple(index)] += sign * delta / leaf.dx
                corrected += 1
    return corrected


# -- one leaf's CFL limit ------------------------------------------------------
def cfl_timestep_subgrid(sg: SubGrid, dx: float, eos: IdealGasEOS) -> float:
    """CFL limit of one sub-grid's interior: CFL * dx / max(|v| + c)."""
    peak = max_signal_subgrid(sg, eos)
    return np.inf if peak <= 0.0 else CFL * dx / peak


# -- the per-leaf SSP-RK3 step -------------------------------------------------
def _stage_rhs(
    integ: HydroIntegrator,
    leaf: OctreeNode,
    accel: Optional[np.ndarray],
    collect_fluxes: bool,
):
    """RHS of one leaf; returns (dudt, boundary_fluxes_or_None)."""
    if collect_fluxes:
        dudt, _, fluxes = dudt_subgrid(
            leaf.subgrid, leaf.dx, integ.eos, return_boundary_fluxes=True
        )
    else:
        dudt, _ = dudt_subgrid(leaf.subgrid, leaf.dx, integ.eos)
        fluxes = None
    s = leaf.subgrid.interior
    u = leaf.subgrid.data[:, s, s, s]
    if accel is not None:
        dudt += gravity_source(u, accel)
    if integ.omega != 0.0:
        x, y, _ = leaf.cell_centers()
        dudt += rotating_frame_source(u, integ.omega, x, y)
    return dudt, fluxes

def _apply_floors(integ: HydroIntegrator, leaf: OctreeNode) -> None:
    s = leaf.subgrid.interior
    u = leaf.subgrid.data[:, s, s, s]
    np.maximum(u[Field.RHO], integ.eos.rho_floor, out=u[Field.RHO])
    np.maximum(u[Field.TAU], 0.0, out=u[Field.TAU])
    np.maximum(u[Field.FRAC1], 0.0, out=u[Field.FRAC1])
    np.maximum(u[Field.FRAC2], 0.0, out=u[Field.FRAC2])

def _resync_tau(integ: HydroIntegrator, leaf: OctreeNode) -> None:
    """Where the energy difference is trustworthy, reset tau from it."""
    s = leaf.subgrid.interior
    u = leaf.subgrid.data[:, s, s, s]
    rho = np.maximum(u[Field.RHO], integ.eos.rho_floor)
    kinetic = 0.5 * (u[Field.SX] ** 2 + u[Field.SY] ** 2 + u[Field.SZ] ** 2) / rho
    diff = u[Field.EGAS] - kinetic
    healthy = diff > integ.eos.dual_eta * u[Field.EGAS]
    u[Field.TAU] = np.where(
        healthy, integ.eos.tau_from_eint(np.maximum(diff, integ.eos.eint_floor)), u[Field.TAU]
    )


def step_reference(integ: HydroIntegrator, dt: Optional[float] = None) -> float:
    """One RK3 step of ``integ``'s mesh via the per-leaf loops; advances
    the integrator's clock and signal cache exactly like its ``step``."""
    leaves = integ.mesh.leaves()
    if dt is None:
        dt = integ.timestep()

    u0: Dict[NodeKey, np.ndarray] = {}
    for leaf in leaves:
        s = leaf.subgrid.interior
        u0[leaf.key] = leaf.subgrid.data[:, s, s, s].copy()

    accel: Dict[NodeKey, np.ndarray] = {}
    if integ.gravity is not None:
        n = integ.mesh.n
        stack = np.empty((len(leaves), 3, n, n, n))
        integ.gravity(integ.mesh, stack)
        accel = dict(zip(sorted(leaf.key for leaf in leaves), stack))

    # Boundary fluxes only feed refluxing, which needs a coarse-fine
    # interface to exist — on a uniform mesh skip the six face copies
    # per leaf per stage entirely.
    collect_fluxes = integ.mesh.max_level() > 0
    for a0, a1 in _RK3_STAGES:
        fill_all_ghosts(integ.mesh)
        rhs: Dict[NodeKey, np.ndarray] = {}
        fluxes: Dict[NodeKey, dict] = {}
        for leaf in leaves:
            dudt, leaf_fluxes = _stage_rhs(
                integ, leaf, accel.get(leaf.key), collect_fluxes
            )
            rhs[leaf.key] = dudt
            if leaf_fluxes is not None:
                fluxes[leaf.key] = leaf_fluxes
        if collect_fluxes and fluxes:
            integ.faces_refluxed += apply_flux_corrections(
                integ.mesh, rhs, fluxes
            )
        for leaf in leaves:
            s = leaf.subgrid.interior
            u = leaf.subgrid.data[:, s, s, s]
            leaf.subgrid.data[:, s, s, s] = a0 * u0[leaf.key] + a1 * (
                u + dt * rhs[leaf.key]
            )
            _apply_floors(integ, leaf)

    for leaf in leaves:
        _resync_tau(integ, leaf)
    integ.mesh.restrict_all()
    integ.time += dt
    integ.steps_taken += 1
    integ.last_dt = dt
    integ._record_signals(
        {leaf.key: max_signal_subgrid(leaf.subgrid, integ.eos) for leaf in leaves}
    )
    return dt
