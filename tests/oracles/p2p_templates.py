"""Test oracle: the dense P2P unit templates of one geometry class.

Moved verbatim out of ``repro.gravity.pairwise`` when the plan switched to
the stencil form (``repro.gravity.plan._class_stencil``: one offset table
per class gathered through a shared index matrix); the production path
must reproduce these matrices bit for bit.
"""

from typing import Tuple

import numpy as np


def p2p_unit_templates(
    upos_t: np.ndarray, upos_s: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Unit-distance interaction templates for a P2P geometry class.

    P2P pairs whose leaves have the same *relative* geometry (same level
    difference and same centre offset in units of the finer cell width)
    share one separation matrix up to the scale ``1/dx``: cell positions
    are regular lattices, so ``r_ij = dx * |u_i - u_j|`` with ``u`` the
    half-integer unit positions.  Returns ``(t1, t3)`` with
    ``t1[i, j] = 1/|u_i - u_j|`` and ``t3 = t1**3`` (coincident entries —
    the self-pair diagonal — are zeroed, reproducing the masked diagonal of
    :func:`pairwise_accumulate`).  The cached plan stores these per class;
    scaling by ``1/dx`` and ``1/dx**3`` recovers the physical kernels.
    """
    # On the half-integer lattice r2 is an exact quarter-integer, so the
    # whole matrix gathers from one tiny 1/sqrt table: 4*r2 is a small
    # bounded int and 1/sqrt(r2) = 2/sqrt(4*r2).  This avoids the (nc, nc)
    # sqrt entirely — the dominant cost of a cold plan build.
    r2 = upos_t @ upos_s.T
    r2 *= -2.0
    r2 += np.einsum("ni,ni->n", upos_t, upos_t)[:, None]
    r2 += np.einsum("ni,ni->n", upos_s, upos_s)[None, :]
    q = np.rint(4.0 * r2).astype(np.intp)
    table = np.arange(q.max() + 1, dtype=np.float64)
    np.sqrt(table, out=table)
    with np.errstate(divide="ignore"):
        np.divide(2.0, table, out=table)
    table[0] = 0.0  # coincident entries (the masked self-pair diagonal)
    t1 = table[q]
    t3 = t1 * t1
    t3 *= t1
    return t1, t3
