"""Test oracle: the Lane-Emden equation solver.

The non-rotating SCF star is held to its ``theta**n`` profile; nothing in
the program builds a star from it (the SCF iteration finds its own
structure).

The dimensionless structure of a polytrope of index n obeys

    (1/xi^2) d/dxi (xi^2 dtheta/dxi) = -theta^n,  theta(0)=1, theta'(0)=0.

The first zero xi_1 marks the stellar surface.  Analytic solutions exist for
n = 0 (theta = 1 - xi^2/6), n = 1 (sin xi / xi) and n = 5 (no finite
surface); the tests pin the solver against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LaneEmdenSolution:
    """Surface values and an interpolant for theta(xi)."""

    n: float
    xi1: float  # first zero of theta
    dtheta_dxi_at_xi1: float  # theta'(xi_1), negative
    xi: np.ndarray
    theta: np.ndarray

    def theta_of(self, xi: np.ndarray) -> np.ndarray:
        """theta at arbitrary radii (0 outside the surface)."""
        xi = np.asarray(xi, dtype=np.float64)
        out = np.interp(xi, self.xi, self.theta, right=0.0)
        return np.clip(out, 0.0, 1.0)

    @property
    def mass_coefficient(self) -> float:
        """-xi_1^2 theta'(xi_1), the dimensionless mass integral."""
        return -(self.xi1**2) * self.dtheta_dxi_at_xi1


def lane_emden(n: float, xi_max: float = 50.0, rtol: float = 1e-10) -> LaneEmdenSolution:
    """Integrate the Lane-Emden equation for polytropic index ``n``.

    Raises for n >= 5 (no finite surface) and n < 0.
    """
    from scipy.integrate import solve_ivp

    if n < 0:
        raise ValueError("polytropic index must be non-negative")
    if n >= 5:
        raise ValueError("polytropes with n >= 5 have no finite surface")

    def rhs(xi: float, y: np.ndarray) -> np.ndarray:
        theta, dtheta = y
        # theta can graze tiny negatives near the surface between steps.
        theta_n = max(theta, 0.0) ** n
        if xi == 0.0:
            return np.array([dtheta, -theta_n / 3.0])
        return np.array([dtheta, -theta_n - 2.0 * dtheta / xi])

    def surface(xi: float, y: np.ndarray) -> float:
        return y[0]

    surface.terminal = True
    surface.direction = -1

    # Start slightly off-centre with the series expansion
    # theta = 1 - xi^2/6 + n xi^4 / 120.
    xi0 = 1e-6
    y0 = np.array([1.0 - xi0**2 / 6.0, -xi0 / 3.0])
    sol = solve_ivp(
        rhs,
        (xi0, xi_max),
        y0,
        events=surface,
        rtol=rtol,
        atol=1e-12,
        dense_output=True,
        max_step=0.01 if n > 4 else 0.1,
    )
    if not sol.t_events[0].size:
        raise RuntimeError(f"no Lane-Emden surface found for n={n} below xi={xi_max}")
    xi1 = float(sol.t_events[0][0])
    dtheta = float(sol.y_events[0][0][1])

    xi_grid = np.linspace(0.0, xi1, 2048)
    theta_grid = np.empty_like(xi_grid)
    theta_grid[0] = 1.0
    inside = (xi_grid > 0) & (xi_grid <= sol.t[-1])
    theta_grid[inside] = np.clip(sol.sol(xi_grid[inside])[0], 0.0, 1.0)
    theta_grid[xi_grid > sol.t[-1]] = 0.0
    theta_grid[-1] = 0.0
    return LaneEmdenSolution(n, xi1, dtheta, xi_grid, theta_grid)
