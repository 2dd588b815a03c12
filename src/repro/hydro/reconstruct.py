"""Slope-limited MUSCL reconstruction.

Second-order piecewise-linear reconstruction of primitive variables with the
minmod limiter: total-variation-diminishing, so no new extrema appear — the
property the property-based tests pin down.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The minmod limiter: smaller magnitude if same sign, else zero."""
    same_sign = a * b > 0.0
    return np.where(same_sign, np.where(np.abs(a) < np.abs(b), a, b), 0.0)


def reconstruct_axis(w: np.ndarray, axis: int) -> Tuple[np.ndarray, np.ndarray]:
    """Face states from cell states along ``axis``.

    For a cell array of extent ``M`` along the axis there are ``M - 3``
    interior faces with both-side reconstructions available (faces between
    cells 1..M-2, since each side needs a limited slope using one neighbour
    on each side).

    Returns ``(w_left, w_right)``: the states immediately left/right of each
    such face, with extent ``M - 3`` along ``axis`` and unchanged extents
    elsewhere.  Face ``j`` (0-based) of the output sits between cells
    ``j + 1`` and ``j + 2`` of the input.
    """
    w = np.asarray(w)
    ax = axis % w.ndim

    def shift(lo: int, hi: int) -> np.ndarray:
        index = [slice(None)] * w.ndim
        index[ax] = slice(lo, w.shape[ax] + hi if hi < 0 else None)
        return w[tuple(index)]

    d_minus = shift(1, -1) - shift(0, -2)  # w[i] - w[i-1] for i in 1..M-2
    d_plus = shift(2, 0) - shift(1, -1)  # w[i+1] - w[i] for i in 1..M-2
    slope = 0.5 * minmod(d_minus, d_plus)  # limited half-slope of cells 1..M-2

    center = shift(1, -1)  # cells 1..M-2
    # Left state of face between cell i and i+1: w[i] + slope[i]
    # Right state of that face:                  w[i+1] - slope[i+1]
    def chop(arr: np.ndarray, lo: int, hi: int) -> np.ndarray:
        index = [slice(None)] * arr.ndim
        index[ax] = slice(lo, arr.shape[ax] + hi if hi < 0 else None)
        return arr[tuple(index)]

    w_left = chop(center + slope, 0, -1)
    w_right = chop(center - slope, 1, 0)
    return w_left, w_right

