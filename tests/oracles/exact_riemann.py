"""Test oracle: exact Riemann solver for the 1-D ideal-gas Euler
equations (Toro, ch. 4).

The shock-tube tests compare the finite-volume scheme's output against
these profiles; nothing in the program steps with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class RiemannState:
    rho: float
    u: float
    p: float


def _f_K(p: float, state: RiemannState, gamma: float) -> Tuple[float, float]:
    """Toro's f_K(p) and its derivative for one side of the discontinuity."""
    rho_k, p_k = state.rho, state.p
    a_k = np.sqrt(gamma * p_k / rho_k)
    if p > p_k:  # shock
        A = 2.0 / ((gamma + 1.0) * rho_k)
        B = (gamma - 1.0) / (gamma + 1.0) * p_k
        sqrt_term = np.sqrt(A / (p + B))
        f = (p - p_k) * sqrt_term
        df = sqrt_term * (1.0 - (p - p_k) / (2.0 * (p + B)))
    else:  # rarefaction
        f = (
            2.0
            * a_k
            / (gamma - 1.0)
            * ((p / p_k) ** ((gamma - 1.0) / (2.0 * gamma)) - 1.0)
        )
        df = (1.0 / (rho_k * a_k)) * (p / p_k) ** (-(gamma + 1.0) / (2.0 * gamma))
    return f, df


def _star_pressure(left: RiemannState, right: RiemannState, gamma: float) -> float:
    """Pressure in the star region via root finding on Toro's pressure
    function; bracketed with brentq for robustness."""
    from scipy.optimize import brentq

    def pressure_function(p: float) -> float:
        fl, _ = _f_K(p, left, gamma)
        fr, _ = _f_K(p, right, gamma)
        return fl + fr + (right.u - left.u)

    p_min = 1e-12
    p_max = 10.0 * max(left.p, right.p)
    while pressure_function(p_max) < 0.0:
        p_max *= 10.0
        if p_max > 1e12:
            raise RuntimeError("star pressure bracket failed (vacuum case?)")
    if pressure_function(p_min) > 0.0:
        # Two strong rarefactions towards vacuum; clamp at p_min.
        return p_min
    return brentq(pressure_function, p_min, p_max, xtol=1e-14, rtol=1e-13)


def exact_riemann(
    left: RiemannState,
    right: RiemannState,
    xi: np.ndarray,
    gamma: float = 1.4,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Self-similar solution sampled at ``xi = x / t``.

    Returns ``(rho, u, p)`` arrays matching ``xi``.
    """
    xi = np.asarray(xi, dtype=np.float64)
    p_star = _star_pressure(left, right, gamma)
    fl, _ = _f_K(p_star, left, gamma)
    fr, _ = _f_K(p_star, right, gamma)
    u_star = 0.5 * (left.u + right.u) + 0.5 * (fr - fl)

    rho = np.empty_like(xi)
    u = np.empty_like(xi)
    p = np.empty_like(xi)

    gm1, gp1 = gamma - 1.0, gamma + 1.0
    a_l = np.sqrt(gamma * left.p / left.rho)
    a_r = np.sqrt(gamma * right.p / right.rho)

    for i, s in enumerate(xi):
        if s <= u_star:  # left of the contact
            if p_star > left.p:  # left shock
                rho_star = left.rho * (
                    (p_star / left.p + gm1 / gp1) / (gm1 / gp1 * p_star / left.p + 1.0)
                )
                shock_speed = left.u - a_l * np.sqrt(
                    gp1 / (2 * gamma) * p_star / left.p + gm1 / (2 * gamma)
                )
                if s < shock_speed:
                    rho[i], u[i], p[i] = left.rho, left.u, left.p
                else:
                    rho[i], u[i], p[i] = rho_star, u_star, p_star
            else:  # left rarefaction
                rho_star = left.rho * (p_star / left.p) ** (1.0 / gamma)
                a_star = a_l * (p_star / left.p) ** (gm1 / (2 * gamma))
                head, tail = left.u - a_l, u_star - a_star
                if s < head:
                    rho[i], u[i], p[i] = left.rho, left.u, left.p
                elif s > tail:
                    rho[i], u[i], p[i] = rho_star, u_star, p_star
                else:  # inside the fan
                    u[i] = 2.0 / gp1 * (a_l + gm1 / 2.0 * left.u + s)
                    a = a_l - gm1 / 2.0 * (u[i] - left.u)
                    rho[i] = left.rho * (a / a_l) ** (2.0 / gm1)
                    p[i] = left.p * (a / a_l) ** (2.0 * gamma / gm1)
        else:  # right of the contact
            if p_star > right.p:  # right shock
                rho_star = right.rho * (
                    (p_star / right.p + gm1 / gp1)
                    / (gm1 / gp1 * p_star / right.p + 1.0)
                )
                shock_speed = right.u + a_r * np.sqrt(
                    gp1 / (2 * gamma) * p_star / right.p + gm1 / (2 * gamma)
                )
                if s > shock_speed:
                    rho[i], u[i], p[i] = right.rho, right.u, right.p
                else:
                    rho[i], u[i], p[i] = rho_star, u_star, p_star
            else:  # right rarefaction
                rho_star = right.rho * (p_star / right.p) ** (1.0 / gamma)
                a_star = a_r * (p_star / right.p) ** (gm1 / (2 * gamma))
                head, tail = right.u + a_r, u_star + a_star
                if s > head:
                    rho[i], u[i], p[i] = right.rho, right.u, right.p
                elif s < tail:
                    rho[i], u[i], p[i] = rho_star, u_star, p_star
                else:
                    u[i] = 2.0 / gp1 * (-a_r + gm1 / 2.0 * right.u + s)
                    a = a_r + gm1 / 2.0 * (u[i] - right.u)
                    rho[i] = right.rho * (a / a_r) ** (2.0 / gm1)
                    p[i] = right.p * (a / a_r) ** (2.0 * gamma / gm1)
    return rho, u, p


def sod_solution(
    x: np.ndarray, t: float, x0: float = 0.5, gamma: float = 1.4
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The classic Sod shock tube at time ``t`` (rho, u, p)."""
    left = RiemannState(1.0, 0.0, 1.0)
    right = RiemannState(0.125, 0.0, 0.1)
    if t <= 0.0:
        x = np.asarray(x)
        rho = np.where(x < x0, left.rho, right.rho)
        u = np.zeros_like(rho)
        p = np.where(x < x0, left.p, right.p)
        return rho, u, p
    xi = (np.asarray(x) - x0) / t
    return exact_riemann(left, right, xi, gamma=gamma)
