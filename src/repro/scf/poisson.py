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


def _padded_fft(a: np.ndarray, m: int) -> np.ndarray:
    """3-D ``rfftn`` of ``a`` zero-padded to ``(m, m, m)``, as pocketfft's
    axis order (last axis real, then 0, then 1) on the non-zero lines only."""
    a = np.fft.rfft(a, n=m, axis=2)
    a = np.fft.fft(a, n=m, axis=0)
    return np.fft.fft(a, n=m, axis=1)


class FftPoissonSolver:
    """Open-boundary Poisson solver on an ``n^3`` grid of spacing ``dx``.

    ``solve(rho)`` returns the potential phi with G from the constructor.
    The ``(2n)^3`` convolution runs as 1-D passes that skip the padding's
    all-zero input lines and compute only the output lines that are kept.
    """

    def __init__(self, n: int, dx: float, g_newton: float = 1.0) -> None:
        if n < 4:
            raise ValueError("grid too small")
        self.n = n
        self.dx = dx
        self.g_newton = g_newton
        m = 2 * n
        # Green's function on the doubled, wrapped grid.
        idx = np.arange(m)
        d2 = np.minimum(idx, m - idx) ** 2  # wrapped squared distance in cells
        r = dx * np.sqrt(d2[:, None, None] + d2[:, None] + d2, dtype=np.float64)
        with np.errstate(divide="ignore"):
            green = -1.0 / r
        green[0, 0, 0] = -_mean_inverse_distance_unit_cube() / dx
        self._green_hat = _padded_fft(green, m)
        self._m = m

    def solve(self, rho: np.ndarray) -> np.ndarray:
        """Potential of the density field ``rho`` (n, n, n)."""
        if rho.shape != (self.n,) * 3:
            raise ValueError(f"expected shape {(self.n,)*3}, got {rho.shape}")
        n, m = self.n, self._m
        spec = _padded_fft(rho, m) * self._green_hat
        spec = np.fft.ifft(spec, axis=0, norm="forward")[:n]
        spec = np.fft.ifft(spec, axis=1, norm="forward")[:, :n]
        phi = np.fft.irfft(spec, n=m, axis=2, norm="forward")[..., :n]
        return self.g_newton * self.dx**3 * (phi * (1.0 / m**3))
