"""Finite-volume hydrodynamics (Octo-Tiger's hydro module analog).

A semi-discrete finite-volume scheme over the stacked leaves of a
:class:`~repro.hydro.plan.HydroPlan`:

* primitive reconstruction with minmod-limited MUSCL slopes, HLL
  approximate Riemann fluxes, and gravity and rotating-frame source terms,
  as blocked kernels over whole sub-batches (:mod:`~repro.hydro.plan`),
* strong-stability-preserving RK3 time integration with a *global,
  non-adaptive* timestep (:mod:`~repro.hydro.integrator`) — Octo-Tiger
  deliberately avoids per-level time stepping to keep machine-precision
  conservation,
* a dual-energy formalism via the ``tau`` entropy tracer
  (:mod:`~repro.hydro.eos`).

The per-leaf reference chain the kernels reproduce bit for bit, and the
exact Riemann solver the shock tubes are validated against, are test
oracles (``tests/oracles/``).
"""

from repro.hydro.eos import IdealGasEOS, PolytropicEOS
from repro.hydro.primitives import primitives_from_conserved
from repro.hydro.timestep import global_timestep
from repro.hydro.integrator import HydroIntegrator
from repro.hydro.plan import HydroPlan, build_hydro_plan

__all__ = [
    "IdealGasEOS",
    "PolytropicEOS",
    "primitives_from_conserved",
    "global_timestep",
    "HydroIntegrator",
    "HydroPlan",
    "build_hydro_plan",
]
