"""repro — a Python reproduction of "Simulating Stellar Merger using
HPX/Kokkos on A64FX on Supercomputer Fugaku" (Diehl et al., 2023).

The package rebuilds the paper's software stack as working systems — an
Octo-Tiger-analog AMR astrophysics code (octree + finite-volume hydro +
FMM gravity + SCF initial models), an HPX-analog asynchronous many-task
runtime on a virtual clock and on forked worker processes — and
substitutes the machines (Fugaku, Ookami, Summit, Piz Daint, Perlmutter)
and their SIMD ABIs with calibrated performance models so every table and
figure of the paper's evaluation regenerates on a laptop.

Entry points:

>>> from repro.scenarios import rotating_star
>>> from repro.core import OctoTigerSim
>>> from repro.distsim import RunConfig
>>> from repro.machines import FUGAKU
>>> scenario = rotating_star(level=2)          # doctest: +SKIP
>>> sim = OctoTigerSim(scenario.mesh, eos=scenario.eos, omega=scenario.omega,
...                    config=RunConfig(machine=FUGAKU, nodes=4))  # doctest: +SKIP
>>> sim.step()                                  # doctest: +SKIP

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

__version__ = "1.0.0"

#: Every subpackage, one entry per directory.
__all__ = [
    "amt",
    "analysis",
    "comms",
    "core",
    "distsim",
    "gravity",
    "hydro",
    "ioutil",
    "machines",
    "octree",
    "profiling",
    "resilience",
    "scenarios",
    "scf",
    "simd",
    "util",
]
