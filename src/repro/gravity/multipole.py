"""Multipole moments and local expansions (Cartesian tensors), batched.

Moments are *raw* (non-traceless) Cartesian moments about the node's centre
of mass, which keeps the M2M/M2L algebra elementary:

    M0 = sum m           (monopole)
    Q_ij = sum m r_i r_j (second moment; dipole vanishes about the COM)
    O_ijk = sum m r_i r_j r_k (third moment / octupole)

Octo-Tiger computes the octupole alongside the lower moments to support its
angular-momentum-conserving mode; we carry it for the same reason (the
gravity.order config selects how much of it the kernels use).

Every function works on ``K`` stacked moment sets or expansions at once;
the one-node ``Multipole`` / ``LocalExpansion`` classes they mirror are
the reference solve's (``tests/oracles/fmm.py``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def batched_moments_from_points(
    pos: np.ndarray, mass: np.ndarray, fallback_center: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched P2M: moments of ``K`` independent point sets at once.

    ``pos`` (K, n, 3), ``mass`` (K, n), ``fallback_center`` (K, 3) anchor
    for zero-mass sets.  Returns ``(mass (K,), com (K, 3), quad (K, 3, 3),
    octu (K, 3, 3, 3))`` — the stacked equivalent of
    ``Multipole.from_points`` per set, used by the planned solver to
    replace the per-leaf Python loop.
    """
    total = mass.sum(axis=1)
    nonzero = total > 0.0
    safe = np.where(nonzero, total, 1.0)
    com = np.einsum("bn,bni->bi", mass, pos) / safe[:, None]
    com = np.where(nonzero[:, None], com, fallback_center)
    r = pos - com[:, None, :]
    quad = np.einsum("bn,bni,bnj->bij", mass, r, r)
    octu = np.einsum("bn,bni,bnj,bnk->bijk", mass, r, r, r)
    return np.where(nonzero, total, 0.0), com, quad, octu


def batched_combine(
    cmass: np.ndarray,
    ccom: np.ndarray,
    cquad: np.ndarray,
    coctu: np.ndarray,
    fallback_center: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched M2M: combine ``C`` children of each of ``K`` parents at once.

    ``cmass`` (K, C), ``ccom`` (K, C, 3), ``cquad`` (K, C, 3, 3), ``coctu``
    (K, C, 3, 3, 3); the shift identities match ``Multipole.combine``
    (zero-mass children contribute exact zeros, so no filtering is needed).
    """
    total = cmass.sum(axis=1)
    nonzero = total > 0.0
    safe = np.where(nonzero, total, 1.0)
    com = np.einsum("bc,bci->bi", cmass, ccom) / safe[:, None]
    com = np.where(nonzero[:, None], com, fallback_center)
    d = ccom - com[:, None, :]
    quad = cquad.sum(axis=1) + np.einsum("bc,bci,bcj->bij", cmass, d, d)
    octu = (
        coctu.sum(axis=1)
        + np.einsum("bcij,bck->bijk", cquad, d)
        + np.einsum("bcjk,bci->bijk", cquad, d)
        + np.einsum("bcik,bcj->bijk", cquad, d)
        + np.einsum("bc,bci,bcj,bck->bijk", cmass, d, d, d)
    )
    return np.where(nonzero, total, 0.0), com, quad, octu


def batched_local_shift(
    l0: np.ndarray, l1: np.ndarray, l2: np.ndarray, l3: np.ndarray, d: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched L2L: ``LocalExpansion.shifted`` over ``K`` expansions.

    ``l0`` (K,), ``l1`` (K, 3), ``l2`` (K, 3, 3), ``l3`` (K, 3, 3, 3),
    ``d`` (K, 3) per-expansion displacement.
    """
    s0 = (
        l0
        + np.einsum("bi,bi->b", l1, d)
        + 0.5 * np.einsum("bij,bi,bj->b", l2, d, d)
        + np.einsum("bijk,bi,bj,bk->b", l3, d, d, d) / 6.0
    )
    s1 = l1 + np.einsum("bij,bj->bi", l2, d) + 0.5 * np.einsum("bijk,bj,bk->bi", l3, d, d)
    s2 = l2 + np.einsum("bijk,bk->bij", l3, d)
    return s0, s1, s2, l3


def batched_local_evaluate(
    l0: np.ndarray,
    l1: np.ndarray,
    l2: np.ndarray,
    l3: np.ndarray,
    delta: np.ndarray,
    g_newton: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched L2P: ``LocalExpansion.evaluate`` over ``K`` expansions.

    ``delta`` (K, n, 3) holds each expansion's evaluation displacements;
    returns ``(phi (K, n), acc (K, n, 3))``.
    """
    phi = -g_newton * (
        l0[:, None]
        + np.einsum("bni,bi->bn", delta, l1)
        + 0.5 * np.einsum("bij,bni,bnj->bn", l2, delta, delta)
        + np.einsum("bijk,bni,bnj,bnk->bn", l3, delta, delta, delta) / 6.0
    )
    grad = (
        l1[:, None, :]
        + np.einsum("bij,bnj->bni", l2, delta)
        + 0.5 * np.einsum("bijk,bnj,bnk->bni", l3, delta, delta)
    )
    return phi, g_newton * grad


def octant_ids(n: int) -> np.ndarray:
    """Octant index (0..7, Morton bit order x=bit0) of each raveled cell of
    an ``n**3`` sub-grid."""
    half = n // 2
    idx = np.arange(n**3)
    ix = idx // (n * n)
    iy = (idx // n) % n
    iz = idx % n
    return (
        (ix >= half).astype(int)
        | ((iy >= half).astype(int) << 1)
        | ((iz >= half).astype(int) << 2)
    )
