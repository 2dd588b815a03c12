"""Roche geometry of a binary in the co-rotating frame.

Used to place SCF boundary points and to diagnose mass transfer: a donor
filling its Roche lobe sheds mass through the inner Lagrange point L1 —
the paper's DWD scenario (Fig. 1) is exactly such dynamical mass transfer.
"""

from __future__ import annotations

import numpy as np


def roche_lobe_radius(q: float, separation: float = 1.0) -> float:
    """Eggleton's (1983) volume-equivalent Roche lobe radius of the star
    with mass ratio ``q = m_star / m_companion``."""
    if q <= 0:
        raise ValueError("mass ratio must be positive")
    q13 = q ** (1.0 / 3.0)
    return separation * 0.49 * q13**2 / (0.6 * q13**2 + np.log(1.0 + q13))
