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

Bit contract: :func:`m2l_segmented` returns the bits of the einsum
formulation it replaced (``m2l_segmented_einsum`` in
``tests/oracles/fmm.py``).  Each element sees einsum's scalar operations
in einsum's order: products ``((m7 x_i) x_j) x_k``, the three delta terms
of ``D3`` summed into one zeroed buffer in argument order before one
scale, and ``+ 0.0`` on ``l2`` (einsum's zeroed output turns a ``-0.0``
product into ``+0.0``).  The tensors are component-major, ``(3[, 3[, 3]],
R)``, so every ufunc loop is R long; ``np.add.reduceat`` along R sums each
segment of a component in the order that axis 0 of a row-major tensor
does.  The moment terms still read the gathered row-major moments:
``x.Q.x`` and ``O:xxx`` as einsum's sequential C-order sums from ``+0.0``,
and ``|x|^2``, ``Q x``, ``O_ijj x_i`` and the traces as einsum calls, whose
SIMD-unrolled sums have no sequential twin.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_EYE = np.eye(3)


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
    ``octu`` (R, 3, 3, 3) are the per-row source moments.  ``indptr`` (S+1,)
    gives CSR segment boundaries: rows ``indptr[t]:indptr[t+1]`` belong to
    target ``t`` (segments must be non-empty), whose expansion centre is
    ``centers[t]`` (S, 3).  Returns the per-target local tensors
    ``(l0 (S,), l1 (S, 3), l2 (S, 3, 3), l3 (S, 3, 3, 3))``, summing each
    segment with ``np.add.reduceat`` — the batched form of the per-target
    ``m2l_batch`` of the reference solve (``tests/oracles/fmm.py``).
    """
    x = np.repeat(centers, np.diff(indptr), axis=0) - com  # (R, 3)
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

    xt = np.ascontiguousarray(x.T)
    l0r = mass * inv_r
    l1r = -m3 * xt
    xs5 = m5 * xt
    l2r = 3.0 * (xs5[:, None] * xt + 0.0) - m3 * _EYE[:, :, None]
    l3r = ((m7 * xt)[:, None] * xt)[:, :, None] * xt
    sym = np.zeros_like(l3r)
    for perm in ((0, 1, 2, 3), (1, 0, 2, 3), (2, 1, 0, 3)):  # einsum's A, B, C
        view = sym.transpose(perm)
        for d in range(3):
            view[:, d, d] += xs5
    l3r *= -15.0
    sym *= 3.0
    l3r += sym

    if order >= 2:
        q_xx = sum((quad[:, i, j] * xt[i]) * xt[j] for i, j in np.ndindex(3, 3))
        q_tr = np.einsum("nii->n", quad)
        l0r += 0.5 * (3.0 * q_xx * inv_r5 - q_tr * inv_r3)
        qx = np.einsum("nij,nj->ni", quad, x)
        l1r += 0.5 * (
            -15.0 * (q_xx * inv_r7) * xt
            + 3.0 * (2.0 * inv_r5 * qx.T + (q_tr * inv_r5) * xt)
        )
    if order >= 3:
        o_xxx = sum(
            ((octu[:, i, j, k] * xt[i]) * xt[j]) * xt[k]
            for i, j, k in np.ndindex(3, 3, 3)
        )
        o_contr = np.einsum("nijj->ni", octu)
        o_dot = np.einsum("ni,ni->n", o_contr, x)
        l0r += -(-15.0 * o_xxx * inv_r7 + 9.0 * o_dot * inv_r5) / 6.0

    starts = np.asarray(indptr[:-1], dtype=np.intp)
    l0, l1, l2, l3 = (
        np.moveaxis(np.add.reduceat(t, starts, axis=-1), -1, 0)
        for t in (l0r, l1r, l2r, l3r)
    )
    return l0, l1, l2, l3
