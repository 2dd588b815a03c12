"""FFT Poisson solver with isolated boundary conditions.

The SCF iteration needs dozens of gravity solves on a uniform grid; the
Hockney-Eastwood zero-padding trick turns the open-boundary convolution

    phi(x) = -G sum_y rho(y) dV / |x - y|

into an FFT product on a doubled grid.  The singular self-cell kernel value
uses the exact mean of 1/|r| over a cube, computed once by quadrature, so a
point mass and its immediate neighbourhood carry the right monopole weight.
"""

from __future__ import annotations

import numpy as np


def _mean_inverse_distance_unit_cube(samples: int = 48) -> float:
    """Mean of 1/|r| over the unit cube centred on the origin (~2.38)."""
    # Gauss-Legendre quadrature per axis on [-1/2, 1/2].
    nodes, weights = np.polynomial.legendre.leggauss(samples)
    nodes *= 0.5
    weights *= 0.5
    x, y, z = np.meshgrid(nodes, nodes, nodes, indexing="ij")
    w = (
        weights[:, None, None]
        * weights[None, :, None]
        * weights[None, None, :]
    )
    r = np.sqrt(x**2 + y**2 + z**2)
    return float((w / r).sum())


class FftPoissonSolver:
    """Open-boundary Poisson solver on an ``n^3`` grid of spacing ``dx``.

    ``solve(rho)`` returns the potential phi with G from the constructor.
    """

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

