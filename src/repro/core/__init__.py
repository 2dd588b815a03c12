"""The integrated application driver (the Octo-Tiger analog proper).

:class:`~repro.core.driver.OctoTigerSim` wires the substrates together the
way the paper's software stack does (its Fig. 2): the AMR octree evolves
under the finite-volume hydro solver coupled to the FMM gravity solver,
sub-grids are partitioned over AMT localities along the space-filling curve,
and every step's task graph is executed on the virtual runtime so each
*physically real* step also yields the machine-model timing the performance
study uses.
"""

from repro.core.driver import OctoTigerSim, StepRecord
from repro.core.distributed import DistributedHydroDriver, DistributedStepResult
from repro.core.diagnostics import (
    conserved_totals,
    total_angular_momentum_z,
    center_of_mass,
    Diagnostics,
)

__all__ = [
    "OctoTigerSim",
    "StepRecord",
    "DistributedHydroDriver",
    "DistributedStepResult",
    "conserved_totals",
    "total_angular_momentum_z",
    "center_of_mass",
    "Diagnostics",
]
