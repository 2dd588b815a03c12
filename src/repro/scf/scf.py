"""Hachisu self-consistent-field iterations for rotating stars and binaries.

In the frame co-rotating at Omega the hydrostatic equation integrates to

    h(x) + Phi(x) - 1/2 Omega^2 R^2 = C        (R = cylindrical radius)

with h the specific enthalpy.  For a polytrope h = (n+1) K rho^(1/n), so
fixing boundary points where rho = 0 yields algebraic equations for Omega^2
and the constants C, and the density update is an explicit formula — the
classic HSCF scheme (Hachisu 1986), which is also what Octo-Tiger's SCF
module implements, capable of producing detached, semi-detached and contact
binaries.

The iteration runs on a uniform grid with the FFT Poisson solver (dozens of
gravity solves are needed); :meth:`ScfResult.deposit_to_mesh` then samples
the converged model onto the AMR octree for evolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.hydro.eos import IdealGasEOS, PolytropicEOS
from repro.octree.fields import Field
from repro.octree.mesh import AmrMesh
from repro.scf.poisson import FftPoissonSolver


@dataclass
class ScfResult:
    """A converged (or best-effort) SCF model on its uniform grid."""

    n: int
    box_size: float
    rho: np.ndarray  # (n, n, n)
    phi: np.ndarray  # (n, n, n)
    omega: float
    constants: Tuple[float, ...]
    iterations: int
    converged: bool
    polytropes: Tuple[PolytropicEOS, ...]
    star_masses: Tuple[float, ...] = ()
    history: List[Dict[str, float]] = field(default_factory=list)
    x_com: float = 0.0  # rotation-axis x position (binaries)
    split_x: Optional[float] = None  # star-partition plane (binaries)

    @property
    def dx(self) -> float:
        return self.box_size / self.n

    def cell_centers(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        c = -self.box_size / 2.0 + self.dx * (np.arange(self.n) + 0.5)
        return np.meshgrid(c, c, c, indexing="ij")

    def total_mass(self) -> float:
        return float(self.rho.sum()) * self.dx**3

    # -- transfer to the octree --------------------------------------------------
    def deposit_to_mesh(
        self,
        mesh: AmrMesh,
        eos: IdealGasEOS,
        frame_omega: Optional[float] = None,
        region_split_x: Optional[float] = None,
    ) -> None:
        """Sample the model onto every leaf of an AMR mesh.

        ``frame_omega`` selects the frame: if equal to the model's omega the
        gas is static in the rotating frame (Octo-Tiger's choice); if 0 the
        momenta carry rigid rotation in the inertial frame.  ``region_split_x``
        paints the tracer fields (FRAC1/FRAC2) by side of the split plane.
        """
        grid = -self.box_size / 2.0 + self.dx * (np.arange(self.n) + 0.5)
        omega_gas = self.omega - (self.omega if frame_omega is None else frame_omega)
        for leaf in mesh.leaves():
            x, y, z = leaf.cell_centers()
            rho = self._trilinear(grid, self.rho, x, y, z)
            rho = np.maximum(rho, eos.rho_floor)
            # Internal energy density from the structural EOS of the region
            # (eps * rho = n p for polytropes).
            eint = self.polytropes[0].internal_energy_density(rho)
            if len(self.polytropes) > 1 and region_split_x is not None:
                eint2 = self.polytropes[1].internal_energy_density(rho)
                eint = np.where(x < region_split_x, eint, eint2)
            vx = -omega_gas * y
            vy = omega_gas * (x - self.x_com)
            kinetic = 0.5 * rho * (vx**2 + vy**2)
            sg = leaf.subgrid
            sg.set_interior(Field.RHO, rho)
            sg.set_interior(Field.SX, rho * vx)
            sg.set_interior(Field.SY, rho * vy)
            sg.set_interior(Field.SZ, np.zeros_like(rho))
            sg.set_interior(Field.EGAS, eint + kinetic)
            sg.set_interior(Field.TAU, eos.tau_from_eint(np.maximum(eint, eos.eint_floor)))
            if region_split_x is not None:
                sg.set_interior(Field.FRAC1, np.where(x < region_split_x, rho, 0.0))
                sg.set_interior(Field.FRAC2, np.where(x >= region_split_x, rho, 0.0))
            else:
                sg.set_interior(Field.FRAC1, rho)
                sg.set_interior(Field.FRAC2, np.zeros_like(rho))
        mesh.restrict_all()

    @staticmethod
    def _trilinear(
        grid: np.ndarray, data: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray
    ) -> np.ndarray:
        """Trilinear interpolation of ``data`` (defined at ``grid`` centres
        along each axis) at arbitrary points; clamps to the box."""
        from scipy.interpolate import RegularGridInterpolator

        interp = RegularGridInterpolator(
            (grid, grid, grid), data, bounds_error=False, fill_value=0.0
        )
        pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
        return interp(pts).reshape(x.shape)


def _connected_region(mask: np.ndarray, seed: Tuple[int, int, int]) -> np.ndarray:
    """The connected component of ``mask`` containing ``seed`` (all-False if
    the seed itself is outside the mask).

    The centrifugal term makes the SCF enthalpy positive again far from the
    rotation axis, so an unconstrained update grows spurious 'stars' at the
    box corners; keeping only the component attached to the star seed is the
    standard guard.
    """
    from scipy import ndimage

    labels, _count = ndimage.label(mask)
    seed_label = labels[seed]
    if seed_label == 0:
        return np.zeros_like(mask)
    return labels == seed_label


class _ScfBase:
    """Shared grid/solver plumbing for the SCF drivers."""

    def __init__(self, n: int = 64, box_size: float = 2.0, g_newton: float = 1.0) -> None:
        self.n = n
        self.box_size = box_size
        self.g_newton = g_newton
        self.dx = box_size / n
        self.solver = FftPoissonSolver(n, self.dx, g_newton)
        c = -box_size / 2.0 + self.dx * (np.arange(n) + 0.5)
        self.x, self.y, self.z = np.meshgrid(c, c, c, indexing="ij")
        self.r_cyl2 = self.x**2 + self.y**2
        self.axis = c  # 1-D coordinates

    def _probe_axis(self, field3d: np.ndarray, x: float) -> float:
        """Value of a field on the x-axis nearest to coordinate ``x``."""
        i = int(np.clip(np.searchsorted(self.axis, x), 0, self.n - 1))
        if i > 0 and abs(self.axis[i - 1] - x) < abs(self.axis[i] - x):
            i -= 1
        j = self.n // 2  # cells straddle the axis; nearest row
        return float(field3d[i, j, j])


class SingleStarSCF(_ScfBase):
    """A (possibly rotating) polytrope in equilibrium.

    Fixes the equatorial surface radius ``r_equator``, the polar surface
    radius ``r_pole`` (= equator for a non-rotating star) and the maximum
    density; iterates density, Omega^2 and the integration constant.
    """

    def __init__(
        self,
        rho_max: float = 1.0,
        r_equator: float = 0.5,
        r_pole: float = 0.5,
        poly_n: float = 1.5,
        n: int = 64,
        box_size: float = 2.0,
        g_newton: float = 1.0,
    ) -> None:
        super().__init__(n=n, box_size=box_size, g_newton=g_newton)
        if r_pole > r_equator:
            raise ValueError("a rotating equilibrium has r_pole <= r_equator")
        self.rho_max = rho_max
        self.r_equator = r_equator
        self.r_pole = r_pole
        self.poly_n = poly_n

    def run(
        self, max_iter: int = 60, tol: float = 1e-6, relax: float = 0.6
    ) -> ScfResult:
        n_poly = self.poly_n
        # Initial guess: uniform sphere of the equatorial radius.
        r = np.sqrt(self.x**2 + self.y**2 + self.z**2)
        rho = np.where(r < self.r_equator, self.rho_max, 0.0)

        omega2 = 0.0
        c_const = 0.0
        k_poly = 1.0
        history: List[Dict[str, float]] = []
        converged = False
        spherical = abs(self.r_pole - self.r_equator) < 1e-14

        for iteration in range(1, max_iter + 1):
            phi = self.solver.solve(rho)
            phi_a = self._probe_axis(phi, self.r_equator)  # equator point
            # Polar boundary point: sample along z through the centre.
            j = self.n // 2
            iz = int(
                np.clip(np.searchsorted(self.axis, self.r_pole), 0, self.n - 1)
            )
            phi_b = float(phi[j, j, iz])
            if spherical:
                new_omega2 = 0.0
                new_c = phi_a
            else:
                new_omega2 = 2.0 * (phi_a - phi_b) / self.r_equator**2
                new_omega2 = max(new_omega2, 0.0)
                new_c = phi_b
            h = new_c - phi + 0.5 * new_omega2 * self.r_cyl2
            # Keep only the enthalpy region connected to the stellar centre;
            # the centrifugal term would otherwise grow mass at the corners.
            centre = (self.n // 2,) * 3
            h = np.where(_connected_region(h > 0.0, centre), h, 0.0)
            h_max = float(h.max())
            if h_max <= 0.0:
                raise RuntimeError("SCF enthalpy collapsed; bad geometry")
            k_poly = h_max / ((n_poly + 1.0) * self.rho_max ** (1.0 / n_poly))
            rho_new = self.rho_max * np.clip(h / h_max, 0.0, None) ** n_poly
            delta = float(np.abs(rho_new - rho).max() / self.rho_max)
            rho = relax * rho_new + (1.0 - relax) * rho
            d_omega = abs(new_omega2 - omega2) / max(abs(new_omega2), 1e-30)
            d_c = abs(new_c - c_const) / max(abs(new_c), 1e-30)
            omega2, c_const = new_omega2, new_c
            history.append(
                {"iter": iteration, "omega2": omega2, "C": c_const, "drho": delta}
            )
            if delta < tol and d_omega < tol and d_c < tol:
                converged = True
                break

        phi = self.solver.solve(rho)
        eos = PolytropicEOS(K=k_poly, n=n_poly)
        return ScfResult(
            n=self.n,
            box_size=self.box_size,
            rho=rho,
            phi=phi,
            omega=float(np.sqrt(omega2)),
            constants=(c_const,),
            iterations=len(history),
            converged=converged,
            polytropes=(eos,),
            star_masses=(float(rho.sum()) * self.dx**3,),
            history=history,
        )


class BinarySCF(_ScfBase):
    """A synchronously rotating binary in the co-rotating frame.

    Geometry is fixed by the outer edge ``x_a`` and inner edge ``x_b`` of
    star 1 (centred at negative x) and the outer edge ``x_c`` of star 2;
    maximum densities of both stars are prescribed (their ratio sets the
    mass ratio).  ``contact=True`` shares a single constant between the
    stars, producing a common envelope (the v1309 progenitor);
    ``contact=False`` produces detached/semi-detached systems (the DWD
    progenitor).
    """

    def __init__(
        self,
        x_a: float = -0.75,
        x_b: float = -0.15,
        x_c: float = 0.55,
        rho_max_1: float = 1.0,
        rho_max_2: float = 0.7,
        poly_n_1: float = 1.5,
        poly_n_2: float = 1.5,
        contact: bool = False,
        n: int = 64,
        box_size: float = 2.0,
        g_newton: float = 1.0,
    ) -> None:
        super().__init__(n=n, box_size=box_size, g_newton=g_newton)
        if not (x_a < x_b < x_c):
            raise ValueError("boundary points must satisfy x_a < x_b < x_c")
        self.x_a, self.x_b, self.x_c = x_a, x_b, x_c
        self.rho_max_1, self.rho_max_2 = rho_max_1, rho_max_2
        self.poly_n_1, self.poly_n_2 = poly_n_1, poly_n_2
        self.contact = contact

    def _initial_guess(self) -> np.ndarray:
        """Two uniform spheres spanning the prescribed edges."""
        c1 = 0.5 * (self.x_a + self.x_b)
        r1 = 0.5 * (self.x_b - self.x_a)
        # Star 2 must initially *reach* its prescribed outer edge x_c:
        # if the guess stops short, H2 = C2 - phi_eff is negative over the
        # whole blob and the star evaporates in the first iteration.
        r2 = 0.35 * (self.x_c - self.x_b)
        c2 = self.x_c - r2
        d1 = np.sqrt((self.x - c1) ** 2 + self.y**2 + self.z**2)
        d2 = np.sqrt((self.x - c2) ** 2 + self.y**2 + self.z**2)
        return np.where(d1 < r1, self.rho_max_1, 0.0) + np.where(
            d2 < r2, self.rho_max_2, 0.0
        )

    def _seed_index(
        self, h: np.ndarray, x_lo: float, x_hi: float
    ) -> Tuple[int, int, int]:
        """Grid index of the enthalpy maximum within a slab x in (lo, hi)
        near the orbital plane — the star centre on that side."""
        window = (
            (self.x > x_lo)
            & (self.x < x_hi)
            & (np.abs(self.y) < 0.25 * self.box_size)
            & (np.abs(self.z) < 0.25 * self.box_size)
        )
        masked = np.where(window, h, -np.inf)
        flat = int(np.argmax(masked))
        return np.unravel_index(flat, h.shape)  # type: ignore[return-value]

    def _split_x(self, phi_eff_axis: np.ndarray) -> float:
        """x of the effective-potential maximum between the stars (~L1)."""
        inner = (self.axis > self.x_b) & (self.axis < self.x_c)
        if not inner.any():
            return 0.5 * (self.x_b + self.x_c)
        idx = np.argmax(phi_eff_axis[inner])
        return float(self.axis[inner][idx])

    def run(
        self, max_iter: int = 200, tol: float = 1e-4, relax: float = 0.5
    ) -> ScfResult:
        rho = self._initial_guess()
        omega2 = 0.0
        c1 = c2 = 0.0
        converged = False
        history: List[Dict[str, float]] = []
        j = self.n // 2
        k1 = k2 = 1.0
        grace1 = grace2 = 0

        x_com = 0.0
        for iteration in range(1, max_iter + 1):
            phi = self.solver.solve(rho)
            # The rotation axis passes through the current centre of mass
            # (Hachisu re-centres each iteration; a fixed axis converges to
            # an unphysical configuration whenever the mass ratio != 1).
            total = float(rho.sum())
            if total > 0.0:
                x_com = float((rho * self.x).sum() / total)
            r2a = (self.x_a - x_com) ** 2
            r2b = (self.x_b - x_com) ** 2
            r2c = (self.x_c - x_com) ** 2
            phi_a = self._probe_axis(phi, self.x_a)
            phi_b = self._probe_axis(phi, self.x_b)
            phi_c = self._probe_axis(phi, self.x_c)

            if self.contact:
                # Shared envelope: one constant from the two outer edges.
                new_omega2 = 2.0 * (phi_a - phi_c) / (r2a - r2c)
                new_omega2 = max(new_omega2, 0.0)
                new_c1 = phi_a - 0.5 * new_omega2 * r2a
                new_c2 = new_c1
            else:
                new_omega2 = 2.0 * (phi_a - phi_b) / (r2a - r2b)
                new_omega2 = max(new_omega2, 0.0)
                new_c1 = phi_a - 0.5 * new_omega2 * r2a
                new_c2 = phi_c - 0.5 * new_omega2 * r2c
            if iteration > 1:
                # Omega^2 feeds back through the centrifugal term and
                # overshoots, so it is always damped.  The constants are
                # damped only in contact mode: a shared envelope is
                # neutrally stable against sloshing between the lobes and
                # needs the damping, while in detached mode the constants
                # must track the current potential or the enthalpy goes
                # negative wholesale when the mass changes between
                # iterations.
                new_omega2 = relax * new_omega2 + (1.0 - relax) * omega2
                if self.contact:
                    new_c1 = relax * new_c1 + (1.0 - relax) * c1
                    new_c2 = new_c1

            r_cyl2 = (self.x - x_com) ** 2 + self.y**2
            phi_eff = phi - 0.5 * new_omega2 * r_cyl2
            phi_eff_axis = phi_eff[:, j, j]
            split = self._split_x(phi_eff_axis)

            region1 = self.x < split
            h1 = np.where(region1, new_c1 - phi_eff, 0.0)
            h2 = np.where(~region1, new_c2 - phi_eff, 0.0)
            # No mass beyond the outermost prescribed stellar edge: the
            # centrifugal term turns H positive again at large cylindrical
            # radius, and that spurious region can connect to a star along
            # the equator, so a connectivity test alone is not enough.
            r_max = max(abs(self.x_a - x_com), abs(self.x_c - x_com))
            outside = (self.x - x_com) ** 2 + self.y**2 + self.z**2 > r_max**2
            h1[outside] = 0.0
            h2[outside] = 0.0
            # Constrain each star to the enthalpy region connected to its
            # seed (the effective-potential minimum on its side); the
            # centrifugal term would otherwise grow mass at the box corners.
            seed1 = self._seed_index(h1, self.x_a, split)
            seed2 = self._seed_index(h2, split, self.x_c + 2 * self.dx)
            h1 = np.where(_connected_region(h1 > 0.0, seed1), h1, 0.0)
            h2 = np.where(_connected_region(h2 > 0.0, seed2), h2, 0.0)
            h1_max = float(h1.max())
            h2_max = float(h2.max())
            # Grace handling: a star whose enthalpy went non-positive this
            # iteration keeps its previous density instead of evaporating;
            # the boundary-condition damping normally recovers it within a
            # few iterations.  Persistent collapse means bad geometry.
            if h1_max > 0.0:
                k1 = h1_max / (
                    (self.poly_n_1 + 1.0) * self.rho_max_1 ** (1.0 / self.poly_n_1)
                )
                rho1_new = self.rho_max_1 * np.clip(h1 / h1_max, 0.0, None) ** self.poly_n_1
                grace1 = 0
            else:
                rho1_new = np.where(region1, rho, 0.0)
                grace1 += 1
            if h2_max > 0.0:
                k2 = h2_max / (
                    (self.poly_n_2 + 1.0) * self.rho_max_2 ** (1.0 / self.poly_n_2)
                )
                rho2_new = self.rho_max_2 * np.clip(h2 / h2_max, 0.0, None) ** self.poly_n_2
                grace2 = 0
            else:
                rho2_new = np.where(~region1, rho, 0.0)
                grace2 += 1
            if grace1 > 25 or grace2 > 25:
                raise RuntimeError(
                    "SCF enthalpy of one star stayed non-positive for 25 "
                    "iterations; adjust boundary points"
                )
            rho_new = rho1_new + rho2_new

            delta = float(
                np.abs(rho_new - rho).max() / max(self.rho_max_1, self.rho_max_2)
            )
            rho = relax * rho_new + (1.0 - relax) * rho
            d_omega = abs(new_omega2 - omega2) / max(abs(new_omega2), 1e-30)
            omega2, c1, c2 = new_omega2, new_c1, new_c2
            history.append(
                {
                    "iter": iteration,
                    "omega2": omega2,
                    "C1": c1,
                    "C2": c2,
                    "split_x": split,
                    "drho": delta,
                }
            )
            if delta < tol and d_omega < tol:
                converged = True
                break

        phi = self.solver.solve(rho)
        phi_eff = phi - 0.5 * omega2 * ((self.x - x_com) ** 2 + self.y**2)
        split = self._split_x(phi_eff[:, j, j])
        region1 = self.x < split
        m1 = float(rho[region1].sum()) * self.dx**3
        m2 = float(rho[~region1].sum()) * self.dx**3
        return ScfResult(
            n=self.n,
            box_size=self.box_size,
            rho=rho,
            phi=phi,
            omega=float(np.sqrt(omega2)),
            constants=(c1, c2),
            iterations=len(history),
            converged=converged,
            polytropes=(
                PolytropicEOS(K=k1, n=self.poly_n_1),
                PolytropicEOS(K=k2, n=self.poly_n_2),
            ),
            star_masses=(m1, m2),
            history=history,
            x_com=x_com,
            split_x=split,
        )
