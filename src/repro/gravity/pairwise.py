"""GEMM-formulated pairwise gravity sums.

The naive P2P forms the (n_a, n_b, 3) separation tensor; for sub-grid pairs
that is wasteful and for global direct sums it exhausts memory.  Both users
express the interaction with matrix products only —
:func:`p2p_apply_class` over a geometry class's cached unit templates,
:func:`direct_field` in row blocks:

    r^2_ab   = |p_a|^2 + |p_b|^2 - 2 p_a . p_b          (one GEMM)
    phi_a    = -G (1/r) m_b                              (one GEMV)
    acc_a    = -G [ p_a * rowsum(W) - W p_b ],  W = m_b / r^3

The hot loop is written with in-place ufuncs to keep the number of
(n_a x n_b) temporaries at three.  The cancellation error of the quadratic
expansion is ~1e-16 * |p|^2 / r^2, negligible for O(1) domains with
cell-scale minimum separations.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def p2p_apply_class(
    t1: np.ndarray,
    t3: np.ndarray,
    tgt: np.ndarray,
    pos_t: np.ndarray,
    mass_s: np.ndarray,
    pos_s: np.ndarray,
    inv_dx: np.ndarray,
    g_newton: float,
    phi_out: np.ndarray,
    acc_out: np.ndarray,
) -> None:
    """Execute all directed P2P edges of one geometry class in two GEMMs.

    ``tgt`` (E,) target leaf slots, ``pos_t`` (E, nc, 3) target cell
    positions, ``mass_s`` (E, nc)/``pos_s`` (E, nc, 3) source cells and
    ``inv_dx`` (E,) the per-edge template scale.  Accumulates into the
    stacked leaf fields ``phi_out`` (L, nc) / ``acc_out`` (L, nc, 3).

    The physical sums factor through the templates:

        phi_a = -G (1/r) m_b          = -G/dx   * T1 @ m_b
        acc_a = -G [p_a * rowsum(W) - W p_b],  W = m_b / r^3
              = -G/dx^3 * [p_a * (T3 @ m_b) - T3 @ (m_b * p_b)]

    so one ``T1`` GEMM and one four-column-per-edge ``T3`` GEMM replace the
    per-pair distance matrices entirely.
    """
    n_edges = tgt.shape[0]
    nc = mass_s.shape[1]
    out1 = t1 @ mass_s.T  # (nc_t, E)
    rhs = np.concatenate([mass_s[:, :, None], mass_s[:, :, None] * pos_s], axis=2)
    out3 = (t3 @ rhs.transpose(1, 0, 2).reshape(nc, 4 * n_edges)).reshape(
        -1, n_edges, 4
    )
    for e in range(n_edges):
        t = int(tgt[e])
        s1 = g_newton * inv_dx[e]
        s3 = g_newton * inv_dx[e] ** 3
        phi_out[t] -= s1 * out1[:, e]
        acc_out[t] -= s3 * (pos_t[e] * out3[:, e, 0][:, None] - out3[:, e, 1:4])


def direct_field(
    pos: np.ndarray,
    mass: np.ndarray,
    g_newton: float = 1.0,
    block: int = 2048,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact phi (n,) and acceleration (n, 3) of a full particle set,
    computed in row blocks to bound memory at ``block * n`` floats."""
    n = pos.shape[0]
    phi = np.zeros(n)
    acc = np.zeros((n, 3))
    norm = np.einsum("ni,ni->n", pos, pos)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        r2 = pos[lo:hi] @ pos.T
        r2 *= -2.0
        r2 += norm[lo:hi, None]
        r2 += norm[None, :]
        np.maximum(r2, 0.0, out=r2)
        rows = np.arange(lo, hi)
        r2[rows - lo, rows] = np.inf
        inv_r = np.sqrt(r2)
        np.reciprocal(inv_r, out=inv_r)
        inv_r3 = inv_r * inv_r
        inv_r3 *= inv_r
        phi[lo:hi] = -g_newton * (inv_r @ mass)
        inv_r3 *= mass[None, :]
        acc[lo:hi] = pos[lo:hi] * inv_r3.sum(axis=1)[:, None]
        acc[lo:hi] -= inv_r3 @ pos
        acc[lo:hi] *= -g_newton
    return phi, acc
