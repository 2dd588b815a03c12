"""Test oracle: the scipy bodies of the SCF solver's three grid operations.

``repro.scf`` runs on numpy alone.  These are the scipy versions it
replaced, kept verbatim: the zero-padded ``rfftn``/``irfftn`` Poisson
solve, the ``RegularGridInterpolator`` sampler and the ``ndimage.label``
region.  The numpy versions are held to them bit for bit.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.scf.poisson import _mean_inverse_distance_unit_cube


class PaddedFftPoissonSolver:
    """Open-boundary Poisson solver on an ``n^3`` grid of spacing ``dx``,
    as one ``(2n)^3`` zero-padded ``rfftn -> x G_hat -> irfftn``."""

    def __init__(self, n: int, dx: float, g_newton: float = 1.0) -> None:
        from scipy import fft as sp_fft

        if n < 4:
            raise ValueError("grid too small")
        self.n = n
        self.dx = dx
        self.g_newton = g_newton
        m = 2 * n
        # Green's function on the doubled, wrapped grid.
        idx = np.arange(m)
        idx = np.minimum(idx, m - idx)  # wrapped distance in cells
        ix, iy, iz = np.meshgrid(idx, idx, idx, indexing="ij")
        r = dx * np.sqrt(ix**2 + iy**2 + iz**2, dtype=np.float64)
        with np.errstate(divide="ignore"):
            green = -1.0 / r
        green[0, 0, 0] = -_mean_inverse_distance_unit_cube() / dx
        self._green_hat = sp_fft.rfftn(green)
        self._m = m

    def solve(self, rho: np.ndarray) -> np.ndarray:
        """Potential of the density field ``rho`` (n, n, n)."""
        from scipy import fft as sp_fft

        if rho.shape != (self.n,) * 3:
            raise ValueError(f"expected shape {(self.n,)*3}, got {rho.shape}")
        m = self._m
        padded = np.zeros((m, m, m))
        padded[: self.n, : self.n, : self.n] = rho
        phi = sp_fft.irfftn(sp_fft.rfftn(padded) * self._green_hat, s=(m, m, m))
        return self.g_newton * self.dx**3 * phi[: self.n, : self.n, : self.n]


def rgi_trilinear(
    grid: np.ndarray, data: np.ndarray, x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Trilinear interpolation of ``data`` (defined at ``grid`` centres
    along each axis) at arbitrary points; clamps to the box."""
    from scipy.interpolate import RegularGridInterpolator

    interp = RegularGridInterpolator(
        (grid, grid, grid), data, bounds_error=False, fill_value=0.0
    )
    pts = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    return interp(pts).reshape(x.shape)


def label_region(mask: np.ndarray, seed: Tuple[int, int, int]) -> np.ndarray:
    """The connected component of ``mask`` containing ``seed`` (all-False if
    the seed itself is outside the mask)."""
    from scipy import ndimage

    labels, _count = ndimage.label(mask)
    seed_label = labels[seed]
    if seed_label == 0:
        return np.zeros_like(mask)
    return labels == seed_label
