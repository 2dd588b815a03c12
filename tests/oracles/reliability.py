"""Test oracle: Monte Carlo hang fraction under injected message loss.

Cross-checks the closed-form hang model of
:mod:`repro.distsim.reliability` against actual runs of the step task graph
with a seeded per-message drop schedule and no recovery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.distsim.model import DEFAULT_CONSTANTS, ModelConstants
from repro.distsim.reliability import ReliabilityModel
from repro.distsim.runconfig import RunConfig
from repro.distsim.taskgraph import TaskGraphSimulator
from repro.resilience.faults import FaultSpec
from repro.resilience.watchdog import DeadlockError
from repro.scenarios.spec import ScenarioSpec


@dataclass(frozen=True)
class EmpiricalHangResult:
    """Monte Carlo cross-check of the closed-form hang model."""

    hang_fraction: float
    runs: int
    hangs: int
    #: Remote messages one clean (fault-free) run of the step sends — the
    #: empirical counterpart of :func:`messages_per_step`.
    messages_per_clean_step: int

    def predicted_hang_probability(self, drop_rate: float) -> float:
        """The analytic prediction for this workload at ``drop_rate``.

        Per-message Bernoulli loss maps onto the exponential model with
        lambda = -ln(1 - p), so P(hang) = 1 - (1-p)^M exactly.
        """
        model = ReliabilityModel(-math.log(1.0 - drop_rate))
        return model.hang_probability(self.messages_per_clean_step)


def empirical_hang_probability(
    spec: ScenarioSpec,
    config: RunConfig,
    drop_rate: float,
    seeds: Iterable[int],
    constants: ModelConstants = DEFAULT_CONSTANTS,
) -> EmpiricalHangResult:
    """Measure the hang fraction by running the step task graph under a
    seeded per-message drop schedule, one run per seed, without recovery.

    Every dropped ghost message wedges the dependency graph (the watchdog
    raises :class:`~repro.resilience.watchdog.DeadlockError`), so a run
    hangs iff any of its messages is dropped — exactly the event the
    closed-form ``P(hang) = 1 - (1-p)^M`` describes.  Because the drop
    draws are i.i.d. per message index, the Monte Carlo fraction converges
    on the analytic curve.
    """
    clean = TaskGraphSimulator(spec, config, constants).run_step()
    hangs = 0
    runs = 0
    for seed in seeds:
        runs += 1
        simulator = TaskGraphSimulator(
            spec,
            config,
            constants,
            faults=FaultSpec(drop_rate=drop_rate, seed=seed),
        )
        try:
            simulator.run_step()
        except DeadlockError:
            hangs += 1
    return EmpiricalHangResult(
        hang_fraction=hangs / runs if runs else 0.0,
        runs=runs,
        hangs=hangs,
        messages_per_clean_step=clean.messages,
    )
