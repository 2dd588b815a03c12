"""Machine-precision conservation projections for the far field.

The P2P near field is pairwise antisymmetric and conserves linear and
angular momentum identically.  The truncated M2L far field does not.
Octo-Tiger restores linear momentum through the symmetry of its interaction
kernels and angular momentum through an octupole correction term; we obtain
the same invariants with two global projections:

* :func:`project_momentum` removes the net force as a uniform acceleration,
* :func:`project_angular_momentum` removes the net torque about the system
  COM as a rigid angular-acceleration field ``alpha x d`` with
  ``alpha = I^-1 tau``.

Both corrections are orthogonal (a uniform field exerts no torque about the
COM; a rigid rotation field exerts no net force) and scale with the M2L
truncation error, i.e. they vanish as the expansion order grows — which the
tests verify.

Every function takes the leaves stacked in slot order: ``mass (L, nc)``,
``pos (L, nc, 3)`` and ``accel (L, 3, nc)`` (the solver passes the
transposed view of its ``(L, nc, 3)`` accumulator, and the projections
write through it).  Elementwise updates act on the whole stack; reductions
sum each leaf's row, then add the rows up in slot order.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def total_force(mass: np.ndarray, accel: np.ndarray) -> np.ndarray:
    """Net force sum m_i a_i over all leaves."""
    force = np.zeros(3)
    for a, m in zip(accel, mass):
        force += a @ m
    return force


def total_torque(
    mass: np.ndarray,
    pos: np.ndarray,
    accel: np.ndarray,
    about: np.ndarray = None,  # noqa: RUF013
) -> np.ndarray:
    """Net torque sum m_i r_i x a_i (about ``about`` or the origin)."""
    if about is not None:
        pos = pos - about
    torque = np.zeros(3)
    for m, p, a in zip(mass, pos, accel):
        torque += np.einsum("n,ni->i", m, np.cross(p, a.T))
    return torque


def _center_of_mass(mass: np.ndarray, pos: np.ndarray) -> Tuple[float, np.ndarray]:
    total = 0.0
    weighted = np.zeros(3)
    for m, p in zip(mass, pos):
        total += float(m.sum())
        weighted += m @ p
    if total <= 0.0:
        return 0.0, np.zeros(3)
    return total, weighted / total


def project_momentum(mass: np.ndarray, accel: np.ndarray) -> np.ndarray:
    """Subtract the uniform acceleration that zeroes the net force.

    Mutates ``accel`` in place; returns the correction applied (per unit
    mass), whose magnitude measures the far-field truncation error.
    """
    total_mass = sum(float(m.sum()) for m in mass)
    if total_mass <= 0.0:
        return np.zeros(3)
    correction = total_force(mass, accel) / total_mass
    accel -= correction[:, None]
    return correction


def project_angular_momentum(
    mass: np.ndarray, pos: np.ndarray, accel: np.ndarray
) -> np.ndarray:
    """Subtract the rigid field ``alpha x d`` that zeroes the net torque.

    ``I alpha = tau`` with I the inertia tensor about the COM.  Mutates
    ``accel``; returns ``alpha``.  Degenerate inertia tensors (all mass
    collinear) are handled with the pseudo-inverse.
    """
    total_mass, com = _center_of_mass(mass, pos)
    if total_mass <= 0.0:
        return np.zeros(3)
    tau = total_torque(mass, pos, accel, about=com)

    d = pos - com
    inertia = np.zeros((3, 3))
    for m, dl in zip(mass, d):
        r2 = np.einsum("ni,ni->n", dl, dl)
        inertia += np.einsum("n,n->", m, r2) * np.eye(3) - np.einsum(
            "n,ni,nj->ij", m, dl, dl
        )
    # Solve I alpha = tau; fall back to pinv for degenerate distributions.
    try:
        alpha = np.linalg.solve(inertia, tau)
    except np.linalg.LinAlgError:
        alpha = np.linalg.pinv(inertia) @ tau

    accel -= np.cross(alpha, d).transpose(0, 2, 1)
    return alpha
