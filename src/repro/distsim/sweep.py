"""Scaling sweeps: the curves the paper's figures plot.

``scaling_curve`` evaluates the model over a node-count series;
``speedup_series`` normalises to the smallest node count the scenario fits
in — exactly how Figs. 4b and 5b define S.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.distsim.model import (
    DEFAULT_CONSTANTS,
    ModelConstants,
    StepBreakdown,
    simulate_step,
)
from repro.distsim.runconfig import RunConfig  # noqa: F401 - re-exported
from repro.machines.specs import MachineModel
from repro.scenarios.spec import ScenarioSpec


def node_series(start: int, stop: int) -> List[int]:
    """Powers of two from ``start`` to ``stop`` inclusive."""
    if start < 1 or stop < start:
        raise ValueError("need 1 <= start <= stop")
    out = []
    n = start
    while n <= stop:
        out.append(n)
        n *= 2
    return out


def scaling_curve(
    spec: ScenarioSpec,
    machine: MachineModel,
    nodes: Iterable[int],
    constants: ModelConstants = DEFAULT_CONSTANTS,
    **config_kwargs,  # noqa: ANN003
) -> List[StepBreakdown]:
    """Evaluate the step model across node counts on one machine."""
    out = []
    for n in nodes:
        cfg = RunConfig(machine=machine, nodes=n, **config_kwargs)
        out.append(simulate_step(spec, cfg, constants))
    return out


def speedup_series(curve: Sequence[StepBreakdown]) -> List[float]:
    """Speedup relative to the first (smallest-node) entry, scaled by its
    node count — S(N) = rate(N) / rate(N_min)."""
    if not curve:
        return []
    base = curve[0].cells_per_second
    return [point.cells_per_second / base for point in curve]


def weak_scaling_curve(
    spec: ScenarioSpec,
    machine: MachineModel,
    nodes: Iterable[int],
    subgrids_per_node: Optional[int] = None,
    constants: ModelConstants = DEFAULT_CONSTANTS,
    **config_kwargs,  # noqa: ANN003
) -> List[StepBreakdown]:
    """Weak scaling: the workload grows with the node count.

    Not one of the paper's plots, but the natural companion study — perfect
    weak scaling means constant time per step; the sync and surface terms
    make it degrade logarithmically/geometrically instead.
    """
    if subgrids_per_node is None:
        subgrids_per_node = max(spec.n_subgrids, 1)
    out = []
    for n in nodes:
        scaled = spec.with_subgrids(subgrids_per_node * n)
        cfg = RunConfig(machine=machine, nodes=n, **config_kwargs)
        out.append(simulate_step(scaled, cfg, constants))
    return out


def comm_ablation_curves(
    spec: ScenarioSpec,
    machine: MachineModel,
    nodes: Iterable[int],
    constants: ModelConstants = DEFAULT_CONSTANTS,
    **config_kwargs,  # noqa: ANN003
):
    """The paper's communication-optimization ablation (Fig. 8 shape), on
    the discrete-event simulator.

    Executes the per-step task graph across node counts for the four
    combinations of ± message coalescing (``RunConfig.coalesce``, see
    ``docs/comms.md``) and ± the §VII-B local-communication optimization,
    returning ``{label: [TaskGraphResult, ...]}``.  The curve separation —
    bundled runs degrade later as the per-message action overhead stops
    dominating — is the simulated analogue of the paper's with/without
    scaling plot.
    """
    from repro.distsim.taskgraph import TaskGraphSimulator

    variants = {
        "coalesce+local_opt": {"coalesce": True, "comm_local_optimization": True},
        "coalesce": {"coalesce": True, "comm_local_optimization": False},
        "local_opt": {"coalesce": False, "comm_local_optimization": True},
        "baseline": {"coalesce": False, "comm_local_optimization": False},
    }
    out = {}
    for label, flags in variants.items():
        curve = []
        for n in nodes:
            cfg = RunConfig(
                machine=machine, nodes=n, **{**config_kwargs, **flags}
            )
            curve.append(TaskGraphSimulator(spec, cfg, constants).run_step())
        out[label] = curve
    return out


def min_nodes_for(spec: ScenarioSpec, machine: MachineModel) -> int:
    """Smallest power-of-two node count whose memory holds the scenario
    (Fig. 4's starting points: Summit 1, Piz Daint 4, Fugaku 16 for
    v1309)."""
    need = spec.memory_bytes
    node_mem = machine.node.memory_gb * 1e9
    nodes = 1
    while nodes * node_mem < need:
        nodes *= 2
    return nodes
