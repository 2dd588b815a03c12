"""Resilience layer: the faults the paper could only observe.

The paper's §VI-D/§VII report two failures the authors could not debug
before their allocations ended: Octo-Tiger hanging on Fugaku under Fujitsu
MPI at the largest node counts, and deadlocking "about 1 out of 20 runs" on
distributed Ookami.  :mod:`repro.distsim.reliability` models the hang in
closed form; this package holds the pieces that reproduce and diagnose it:

* :mod:`repro.resilience.faults` — a seeded per-message drop schedule
  injected into the network model
  (:class:`repro.distsim.taskgraph.TaskGraphSimulator` takes it as
  ``faults=``; the Monte Carlo hang oracle drives it);
* :mod:`repro.resilience.watchdog` — a deadlock watchdog that turns a
  quiesced-but-unfinished runtime into a typed :class:`DeadlockError`
  naming the stalled future chain (the paper's undebugable hang becomes a
  one-line diagnosis).

A lost modelled message is not recovered: it wedges the step, as it did
for the paper.  The real driver (:meth:`repro.core.driver.OctoTigerSim.run`)
recovers from real faults instead: when a worker process dies or stops
replying the step raises an :class:`UnrecoverableFault`, and the driver
rolls back to its newest checkpoint and replays.
"""

from repro.resilience.faults import FaultInjector, FaultSpec, UnrecoverableFault
from repro.resilience.watchdog import DeadlockError, DeadlockWatchdog

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "UnrecoverableFault",
    "DeadlockError",
    "DeadlockWatchdog",
]
