"""Equations of state.

:class:`IdealGasEOS` closes the Euler system and implements the dual-energy
formalism: total gas energy loses internal energy to float cancellation in
highly supersonic flow, so Octo-Tiger carries the entropy tracer
``tau = (rho * eps)**(1/gamma)`` and reconstructs the internal energy from it
wherever the kinetic energy dominates.

:class:`PolytropicEOS` (``p = K rho**(1 + 1/n)``) serves the SCF initial
models; white dwarfs use n = 1.5 (non-relativistic degenerate), main
sequence stars n = 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IdealGasEOS:
    """Gamma-law gas with dual-energy switch.

    ``dual_eta`` is the fraction of total energy below which the internal
    energy is recovered from the entropy tracer instead of the energy
    difference (Octo-Tiger uses a comparable switch).
    """

    gamma: float = 5.0 / 3.0
    dual_eta: float = 1e-3
    rho_floor: float = 1e-12
    eint_floor: float = 1e-15

    def pressure(self, rho: np.ndarray, eint: np.ndarray) -> np.ndarray:
        """p = (gamma - 1) rho eps, with eint the internal energy *density*."""
        return (self.gamma - 1.0) * np.maximum(eint, self.eint_floor)

    def sound_speed(self, rho: np.ndarray, pressure: np.ndarray) -> np.ndarray:
        rho = np.maximum(rho, self.rho_floor)
        return np.sqrt(self.gamma * np.maximum(pressure, 0.0) / rho)

    def tau_from_eint(self, eint: np.ndarray) -> np.ndarray:
        """Entropy tracer from internal energy density."""
        return np.maximum(eint, self.eint_floor) ** (1.0 / self.gamma)

    def eint_from_tau(self, tau: np.ndarray) -> np.ndarray:
        return np.maximum(tau, 0.0) ** self.gamma

    def dual_energy_eint(
        self, rho: np.ndarray, egas: np.ndarray, kinetic: np.ndarray, tau: np.ndarray
    ) -> np.ndarray:
        """Internal energy density with the dual-energy switch applied."""
        diff = egas - kinetic
        use_tau = diff < self.dual_eta * egas
        return np.where(use_tau, self.eint_from_tau(tau), np.maximum(diff, self.eint_floor))


@dataclass(frozen=True)
class PolytropicEOS:
    """Barotropic p = K rho**Gamma with Gamma = 1 + 1/n."""

    K: float = 1.0
    n: float = 1.5

    @property
    def Gamma(self) -> float:
        return 1.0 + 1.0 / self.n

    def pressure(self, rho: np.ndarray) -> np.ndarray:
        return self.K * np.maximum(rho, 0.0) ** self.Gamma

    def internal_energy_density(self, rho: np.ndarray) -> np.ndarray:
        """eps * rho = n K rho**Gamma = n p (polytrope thermodynamics)."""
        return self.n * self.pressure(rho)
