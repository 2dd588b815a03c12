"""Roche geometry of a binary in the co-rotating frame.

Used to place SCF boundary points and to diagnose mass transfer: a donor
filling its Roche lobe sheds mass through the inner Lagrange point L1 —
the paper's DWD scenario (Fig. 1) is exactly such dynamical mass transfer.
"""

from __future__ import annotations

import numpy as np


def keplerian_omega(m1: float, m2: float, separation: float, g_newton: float = 1.0) -> float:
    """Orbital angular velocity of a point-mass binary: Kepler's third law."""
    if separation <= 0:
        raise ValueError("separation must be positive")
    return float(np.sqrt(g_newton * (m1 + m2) / separation**3))


def roche_lobe_radius(q: float, separation: float = 1.0) -> float:
    """Eggleton's (1983) volume-equivalent Roche lobe radius of the star
    with mass ratio ``q = m_star / m_companion``."""
    if q <= 0:
        raise ValueError("mass ratio must be positive")
    q13 = q ** (1.0 / 3.0)
    return separation * 0.49 * q13**2 / (0.6 * q13**2 + np.log(1.0 + q13))


def lagrange_l1(m1: float, m2: float, separation: float = 1.0) -> float:
    """Distance of the inner Lagrange point from star 1 (on the line of
    centres, with star 2 at ``separation``).

    Solves the co-rotating-frame force balance with the COM at the origin
    of rotation.
    """
    from scipy.optimize import brentq

    if m1 <= 0 or m2 <= 0:
        raise ValueError("masses must be positive")
    a = separation
    mu = m2 / (m1 + m2)

    def force(x: float) -> float:
        # x measured from star 1 towards star 2, 0 < x < a.
        # Effective potential gradient along the axis (G(m1+m2)/a^3 = omega^2).
        return (
            -m1 / x**2
            + m2 / (a - x) ** 2
            + (m1 + m2) / a**3 * (x - mu * a)
        )

    return float(brentq(force, 1e-6 * a, a * (1 - 1e-6), xtol=1e-14))
