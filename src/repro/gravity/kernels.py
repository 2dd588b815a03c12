"""Far-field interaction kernels: derivative tensors of 1/r and M2L.

With g(x) = 1/|x| the Cartesian derivative tensors through third order are

    D0      = 1/r
    D1_i    = -x_i / r^3
    D2_ij   = 3 x_i x_j / r^5 - delta_ij / r^3
    D3_ijk  = -15 x_i x_j x_k / r^7
              + 3 (x_i d_jk + x_j d_ik + x_k d_ij) / r^5

and the M2L conversion (source moments M about c_B, target centre c_A,
x = c_A - c_B) truncated at combined order 3 is

    L^(m) = sum_n ((-1)^n / n!) M^(n) (x) D^(n+m)(x),   n + m <= 3

with the dipole vanishing because moments are taken about the COM.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.gravity.multipole import LocalExpansion, Multipole

_EYE = np.eye(3)


def p2l(
    pos: np.ndarray, mass: np.ndarray, center: np.ndarray
) -> LocalExpansion:
    """Point-to-local: exact local expansion of point sources at a centre.

    Octo-Tiger's FMM works at *cell* granularity — each sub-grid cell is a
    monopole — so interactions between marginally separated sub-grids are
    resolved per source cell.  ``p2l`` reproduces that: L^(m) = sum_j m_j
    D^(m)(c - x_j), vectorised over all source cells of a sub-grid.  The
    only remaining error is the target-side Taylor truncation, which is what
    makes the near part of the far field accurate enough for a theta = 0.5
    opening criterion at sub-grid granularity.
    """
    x = center[None, :] - pos  # (n, 3): target-centre minus source points
    r2 = np.einsum("ni,ni->n", x, x)
    if (r2 <= 0.0).any():
        raise ZeroDivisionError("p2l source coincides with the target centre")
    inv_r = 1.0 / np.sqrt(r2)
    inv_r3 = inv_r / r2
    inv_r5 = inv_r3 / r2
    inv_r7 = inv_r5 / r2

    l0 = float(mass @ inv_r)
    l1 = -np.einsum("n,ni->i", mass * inv_r3, x)
    l2 = 3.0 * np.einsum("n,ni,nj->ij", mass * inv_r5, x, x) - _EYE * float(
        mass @ inv_r3
    )
    xd = np.einsum("n,ni,jk->nijk", mass * inv_r5, x, _EYE)
    l3 = -15.0 * np.einsum("n,ni,nj,nk->ijk", mass * inv_r7, x, x, x) + 3.0 * (
        xd + xd.transpose(0, 2, 1, 3) + xd.transpose(0, 3, 2, 1)
    ).sum(axis=0)
    return LocalExpansion(l0, l1, l2, l3)


def d_tensors(x: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """D0..D3 of g = 1/r at separation vector ``x`` (3,)."""
    r2 = float(x @ x)
    if r2 <= 0.0:
        raise ZeroDivisionError("derivative tensors at zero separation")
    r = np.sqrt(r2)
    inv_r = 1.0 / r
    inv_r3 = inv_r / r2
    inv_r5 = inv_r3 / r2
    inv_r7 = inv_r5 / r2

    d0 = inv_r
    d1 = -x * inv_r3
    d2 = 3.0 * np.outer(x, x) * inv_r5 - _EYE * inv_r3
    xd = np.einsum("i,jk->ijk", x, _EYE)
    d3 = (
        -15.0 * np.einsum("i,j,k->ijk", x, x, x) * inv_r7
        + 3.0 * (xd + xd.transpose(1, 0, 2) + xd.transpose(2, 1, 0)) * inv_r5
    )
    return d0, d1, d2, d3


def m2l_batch(
    mass: np.ndarray,
    com: np.ndarray,
    quad: np.ndarray,
    octu: np.ndarray,
    center: np.ndarray,
    order: int = 3,
) -> LocalExpansion:
    """Batched M2L: one local expansion from many source multipoles.

    ``mass`` (n,), ``com`` (n, 3), ``quad`` (n, 3, 3), ``octu`` (n, 3, 3, 3)
    describe the sources; the result is the sum of their local expansions at
    ``center``.  This is the vectorised form the solver uses — one call per
    target node over all of its interaction-list sources, mirroring how
    Octo-Tiger's Multipole kernel sweeps a stencil with SIMD types.
    """
    x = center[None, :] - com  # (n, 3)
    r2 = np.einsum("ni,ni->n", x, x)
    if (r2 <= 0.0).any():
        raise ZeroDivisionError("m2l_batch source coincides with target centre")
    inv_r = 1.0 / np.sqrt(r2)
    inv_r3 = inv_r / r2
    inv_r5 = inv_r3 / r2
    inv_r7 = inv_r5 / r2

    # Monopole contributions to every L order.
    l0 = float(mass @ inv_r)
    l1 = -np.einsum("n,ni->i", mass * inv_r3, x)
    l2 = 3.0 * np.einsum("n,ni,nj->ij", mass * inv_r5, x, x) - _EYE * float(
        mass @ inv_r3
    )
    # D3 contracted pieces appear twice (L3 monopole, L1 quadrupole); build
    # the weighted symmetric-delta part once per use instead of materialising
    # the full (n, 3, 3, 3) tensor where avoidable.
    xxx7 = np.einsum("n,ni,nj,nk->ijk", mass * inv_r7, x, x, x)
    xs5 = np.einsum("n,ni->i", mass * inv_r5, x)
    sym = (
        np.einsum("i,jk->ijk", xs5, _EYE)
        + np.einsum("j,ik->ijk", xs5, _EYE)
        + np.einsum("k,ij->ijk", xs5, _EYE)
    )
    l3 = -15.0 * xxx7 + 3.0 * sym

    if order >= 2:
        # Quadrupole: L0 += 1/2 Q:D2 ; L1 += 1/2 Q_jk D3_ijk.
        q_xx = np.einsum("nij,ni,nj->n", quad, x, x)
        q_tr = np.einsum("nii->n", quad)
        l0 += 0.5 * float((3.0 * q_xx * inv_r5 - q_tr * inv_r3).sum())
        # D3_ijk Q_jk = -15 x_i (x.Q.x)/r^7 + 3 (2 (Q x)_i + x_i tr Q)/r^5
        qx = np.einsum("nij,nj->ni", quad, x)
        l1 += 0.5 * (
            -15.0 * np.einsum("n,ni->i", q_xx * inv_r7, x)
            + 3.0
            * (
                2.0 * np.einsum("n,ni->i", inv_r5, qx)
                + np.einsum("n,ni->i", q_tr * inv_r5, x)
            )
        )
    if order >= 3:
        # Octupole: L0 += -1/6 O : D3.
        o_xxx = np.einsum("nijk,ni,nj,nk->n", octu, x, x, x)
        o_contr = np.einsum("nijj->ni", octu)  # contracted octupole vector
        o_dot = np.einsum("ni,ni->n", o_contr, x)
        l0 += -(
            -15.0 * float((o_xxx * inv_r7).sum()) + 9.0 * float((o_dot * inv_r5).sum())
        ) / 6.0

    return LocalExpansion(l0, l1, l2, l3)


def m2l_segmented(
    mass: np.ndarray,
    com: np.ndarray,
    quad: np.ndarray,
    octu: np.ndarray,
    centers: np.ndarray,
    indptr: np.ndarray,
    order: int = 3,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Segmented M2L: many targets' interaction lists in one vectorised call.

    The planned solver flattens every (target, source) far pair of a level
    into one row list — ``mass`` (R,), ``com`` (R, 3), ``quad`` (R, 3, 3),
    ``octu`` (R, 3, 3, 3) are the per-row source moments and ``centers``
    (R, 3) the per-row target expansion centre.  ``indptr`` (S+1,) gives
    CSR segment boundaries: rows ``indptr[t]:indptr[t+1]`` belong to target
    ``t`` (segments must be non-empty).  Returns the per-target local
    tensors ``(l0 (S,), l1 (S, 3), l2 (S, 3, 3), l3 (S, 3, 3, 3))``,
    summing each segment with ``np.add.reduceat`` — the batched form of
    calling :func:`m2l_batch` once per target.
    """
    x = centers - com  # (R, 3)
    r2 = np.einsum("ni,ni->n", x, x)
    if bool((r2 <= 0.0).any()):
        raise ZeroDivisionError("m2l_segmented source coincides with target centre")
    inv_r = 1.0 / np.sqrt(r2)
    inv_r3 = inv_r / r2
    inv_r5 = inv_r3 / r2
    inv_r7 = inv_r5 / r2

    m3 = mass * inv_r3
    m5 = mass * inv_r5
    m7 = mass * inv_r7

    l0r = mass * inv_r
    l1r = -m3[:, None] * x
    l2r = 3.0 * np.einsum("n,ni,nj->nij", m5, x, x) - m3[:, None, None] * _EYE
    xs5 = m5[:, None] * x
    l3r = -15.0 * np.einsum("n,ni,nj,nk->nijk", m7, x, x, x) + 3.0 * (
        np.einsum("ni,jk->nijk", xs5, _EYE)
        + np.einsum("nj,ik->nijk", xs5, _EYE)
        + np.einsum("nk,ij->nijk", xs5, _EYE)
    )

    if order >= 2:
        q_xx = np.einsum("nij,ni,nj->n", quad, x, x)
        q_tr = np.einsum("nii->n", quad)
        l0r += 0.5 * (3.0 * q_xx * inv_r5 - q_tr * inv_r3)
        qx = np.einsum("nij,nj->ni", quad, x)
        l1r += 0.5 * (
            -15.0 * (q_xx * inv_r7)[:, None] * x
            + 3.0 * (2.0 * inv_r5[:, None] * qx + (q_tr * inv_r5)[:, None] * x)
        )
    if order >= 3:
        o_xxx = np.einsum("nijk,ni,nj,nk->n", octu, x, x, x)
        o_contr = np.einsum("nijj->ni", octu)
        o_dot = np.einsum("ni,ni->n", o_contr, x)
        l0r += -(-15.0 * o_xxx * inv_r7 + 9.0 * o_dot * inv_r5) / 6.0

    starts = np.asarray(indptr[:-1], dtype=np.intp)
    return (
        np.add.reduceat(l0r, starts),
        np.add.reduceat(l1r, starts, axis=0),
        np.add.reduceat(l2r, starts, axis=0),
        np.add.reduceat(l3r, starts, axis=0),
    )


def m2l(source: Multipole, x: np.ndarray, order: int = 3) -> LocalExpansion:
    """Local expansion at a target centre ``x = c_target - c_source``.

    ``order`` selects the source moments used: 1 monopole, 2 +quadrupole,
    3 +octupole (the gravity.order configuration / the FMM-order ablation).
    """
    if order not in (1, 2, 3):
        raise ValueError("m2l order must be 1, 2 or 3")
    d0, d1, d2, d3 = d_tensors(x)
    m0 = source.mass

    l0 = m0 * d0
    l1 = m0 * d1
    l2 = m0 * d2
    l3 = m0 * d3

    if order >= 2:
        q = source.quad
        l0 += 0.5 * float(np.einsum("ij,ij->", q, d2))
        l1 += 0.5 * np.einsum("jk,ijk->i", q, d3)
    if order >= 3:
        o = source.octu
        l0 += -float(np.einsum("ijk,ijk->", o, d3)) / 6.0

    return LocalExpansion(float(l0), l1, l2, l3)
