"""Self-consistent-field (SCF) initial models.

Octo-Tiger initialises its binaries with an iterative SCF technique: the
hydrostatic equilibrium equation in the rotating frame reduces to an
algebraic relation between the effective potential and the enthalpy, which
is iterated against the gravity solver until the structure converges.  The
module builds:

* rotating single stars (:class:`~repro.scf.scf.SingleStarSCF`),
* detached / contact binaries (:class:`~repro.scf.scf.BinarySCF`) — the
  progenitors of the paper's v1309 and DWD scenarios,
* the Roche-lobe radius that sizes the binaries (:mod:`~repro.scf.roche`).
"""

from repro.scf.roche import roche_lobe_radius
from repro.scf.scf import SingleStarSCF, BinarySCF, ScfResult

__all__ = [
    "roche_lobe_radius",
    "SingleStarSCF",
    "BinarySCF",
    "ScfResult",
]
