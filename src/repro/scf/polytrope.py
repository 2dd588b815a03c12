"""Spherical polytropic star models.

Maps a (mass, radius, index) triple to the physical structure via the
Lane-Emden solution:

    a     = R / xi_1                          (length scale)
    rho_c = M xi_1 / (4 pi R^3 |theta'(xi_1)|)
    K     = 4 pi G a^2 rho_c^((n-1)/n) / (n+1)
    rho(r) = rho_c theta(r / a)^n

Main-sequence stars in the v1309 scenario use n = 3; white dwarfs in the
DWD scenario use n = 1.5 (non-relativistic degenerate electrons).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.hydro.eos import PolytropicEOS
from repro.scf.lane_emden import LaneEmdenSolution, lane_emden


@lru_cache(maxsize=16)
def _cached_lane_emden(n: float) -> LaneEmdenSolution:
    return lane_emden(n)


@dataclass(frozen=True)
class PolytropeModel:
    """A spherical polytrope of given total mass and radius (code units,
    G = 1 unless overridden)."""

    mass: float
    radius: float
    n: float = 1.5
    g_newton: float = 1.0

    @property
    def lane_emden_solution(self) -> LaneEmdenSolution:
        return _cached_lane_emden(self.n)

    @property
    def length_scale(self) -> float:
        return self.radius / self.lane_emden_solution.xi1

    @property
    def rho_c(self) -> float:
        le = self.lane_emden_solution
        return self.mass * le.xi1 / (4.0 * np.pi * self.radius**3 * abs(le.dtheta_dxi_at_xi1))

    @property
    def K(self) -> float:
        a = self.length_scale
        return (
            4.0
            * np.pi
            * self.g_newton
            * a**2
            * self.rho_c ** ((self.n - 1.0) / self.n)
            / (self.n + 1.0)
        )

    @property
    def eos(self) -> PolytropicEOS:
        return PolytropicEOS(K=self.K, n=self.n)

    def density(self, r: np.ndarray) -> np.ndarray:
        """rho at radii ``r`` from the centre (0 outside the surface)."""
        le = self.lane_emden_solution
        theta = le.theta_of(np.asarray(r, dtype=np.float64) / self.length_scale)
        return self.rho_c * theta**self.n

    def pressure(self, r: np.ndarray) -> np.ndarray:
        return self.eos.pressure(self.density(r))

    def integrated_mass(self, n_samples: int = 4096) -> float:
        """Numerical check: 4 pi integral rho r^2 dr (should equal mass)."""
        r = np.linspace(0.0, self.radius, n_samples)
        rho = self.density(r)
        return float(4.0 * np.pi * np.trapezoid(rho * r**2, r))
