"""Resilience layer: surviving the faults the paper could only observe.

The paper's §VI-D/§VII report two failures the authors could not debug
before their allocations ended: Octo-Tiger hanging on Fugaku under Fujitsu
MPI at the largest node counts, and deadlocking "about 1 out of 20 runs" on
distributed Ookami.  :mod:`repro.distsim.reliability` models the *diagnosis*
side (closed-form hang probability) and :class:`repro.amt.network.NetworkModel`
injects the faults; this package adds the *recovery* side:

* :mod:`repro.resilience.faults` — seeded fault schedules (drop, delay,
  duplicate, node crash) injected into the network model;
* :mod:`repro.resilience.protocol` — acknowledged delivery with per-message
  sequence numbers, timeout + exponential-backoff retransmission, duplicate
  suppression and FIFO reordering, so a lost ghost message no longer wedges
  the step;
* :mod:`repro.resilience.watchdog` — a deadlock watchdog that turns a
  quiesced-but-unfinished runtime into a typed :class:`DeadlockError`
  naming the stalled future chain (the paper's undebugable hang becomes a
  one-line diagnosis).

The three act on the *modelled* network, where a dropped message means
something: :class:`repro.core.distributed.DistributedHydroDriver` takes a
``faults=`` schedule and a ``recovery=`` policy, and
:class:`repro.distsim.taskgraph.TaskGraphSimulator` a ``faults=`` schedule.  The real driver
(:meth:`repro.core.driver.OctoTigerSim.run`) recovers from real faults
instead: when a worker process dies or stops replying the step raises an
:class:`UnrecoverableFault`, and the driver rolls back to its newest
checkpoint and replays — the same loop a training stack runs around
collective comms.
"""

from repro.resilience.faults import (
    FaultDecision,
    FaultInjector,
    FaultSpec,
    UnrecoverableFault,
)
from repro.resilience.protocol import RetryPolicy, ReliableTransport, TransportStats
from repro.resilience.watchdog import DeadlockError, DeadlockWatchdog

__all__ = [
    "FaultDecision",
    "FaultInjector",
    "FaultSpec",
    "RetryPolicy",
    "ReliableTransport",
    "TransportStats",
    "UnrecoverableFault",
    "DeadlockError",
    "DeadlockWatchdog",
]
