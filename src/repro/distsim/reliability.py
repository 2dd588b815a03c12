"""Hang/deadlock reliability analysis (paper SVI-D and SVII).

The paper reports two failure observations it could not debug before the
allocations ended: Octo-Tiger *hanging* on Fugaku at the largest node
counts under Fujitsu MPI, and *rare deadlocks* ("about 1 out of 20 runs")
on distributed Ookami runs.  Both are consistent with a small per-message
loss/race probability: a run survives only if every ghost message round
completes, so

    P(hang) = 1 - (1 - p)^M  ~  1 - exp(-p M)

with M the number of messages a run exchanges.  Calibrating p to the
Ookami observation predicts how the hang probability explodes with node
count — the qualitative behaviour the paper saw on Fugaku.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from repro.distsim.model import DEFAULT_CONSTANTS, ModelConstants
from repro.distsim.runconfig import RunConfig
from repro.scenarios.spec import ScenarioSpec


def messages_per_step(
    spec: ScenarioSpec,
    config: RunConfig,
    constants: ModelConstants = DEFAULT_CONSTANTS,
) -> float:
    """Remote ghost messages per timestep across the whole job."""
    p = config.nodes
    if p == 1:
        return 0.0
    s_p = spec.n_subgrids / p
    remote_fraction = min(1.0, constants.sfc_surface_coeff * s_p ** (-1.0 / 3.0))
    faces = spec.n_subgrids * spec.ghost_faces_per_subgrid * 3.0  # RK stages
    return faces * remote_fraction


@dataclass(frozen=True)
class ReliabilityModel:
    """Per-message failure probability lambda, with run-level predictions."""

    per_message_probability: float

    def hang_probability(self, messages: float) -> float:
        if messages < 0:
            raise ValueError("message count must be non-negative")
        return 1.0 - math.exp(-self.per_message_probability * messages)

    def expected_attempts(self, messages: float) -> float:
        """Mean number of run attempts until one completes."""
        survive = 1.0 - self.hang_probability(messages)
        if survive <= 0.0:
            return math.inf
        return 1.0 / survive

    @classmethod
    def calibrate(
        cls, observed_hang_fraction: float, messages: float
    ) -> "ReliabilityModel":
        """Fit lambda from an observed hang rate at a known message count
        (e.g. the paper's 1/20 deadlocks on Ookami runs)."""
        if not 0.0 < observed_hang_fraction < 1.0:
            raise ValueError("observed fraction must be in (0, 1)")
        if messages <= 0:
            raise ValueError("messages must be positive")
        lam = -math.log(1.0 - observed_hang_fraction) / messages
        return cls(per_message_probability=lam)


def hang_probability_curve(
    spec: ScenarioSpec,
    model: ReliabilityModel,
    machine,  # noqa: ANN001
    node_counts,  # noqa: ANN001
    steps: int = 100,
) -> list:
    """P(hang within ``steps`` steps) across node counts."""
    out = []
    for nodes in node_counts:
        config = RunConfig(machine=machine, nodes=nodes)
        messages = messages_per_step(spec, config) * steps
        out.append((nodes, model.hang_probability(messages)))
    return out
