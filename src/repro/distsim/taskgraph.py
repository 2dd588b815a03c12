"""Fine-grained discrete-event execution of one timestep's task graph.

Where :mod:`repro.distsim.model` *sums* costs, this module *schedules*
them: it builds the actual dependency graph of a timestep — per-sub-grid
ghost exchanges feeding hydro kernels for three RK stages, then the gravity
tree traversal level by level with the Multipole kernel split into
``tasks_per_multipole_kernel`` AMT tasks — and executes it on the virtual
runtime with one locality per node and one worker per core.

It shares every cost constant with the analytic model, so the two can be
cross-validated on small configurations; the DES additionally *exhibits*
the mechanisms the paper discusses (cores starving during traversals,
latency hiding through task interleaving) rather than assuming them.

Build / execute split
---------------------
:meth:`TaskGraphSimulator.build_step_graph` produces the step's graph as
declarative :class:`StepNode` records — task kind, cost, locality and
dependency edges — and :meth:`TaskGraphSimulator.run_step` executes that
structure on the virtual runtime (timing, starvation, message counts).
The graph is a *pricing* model of a lattice of sub-grids and runs no
kernel; the race checks read the effects of the real step program
instead (:func:`repro.hydro.plan.op_effect_rows`, ``docs/analysis.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.amt.future import Future, Promise, when_all
from repro.amt.locality import Runtime
from repro.amt.network import Message, NetworkModel
from repro.distsim.model import DEFAULT_CONSTANTS, ModelConstants, _cpu_rate
from repro.distsim.runconfig import RunConfig
from repro.resilience.faults import FaultSpec
from repro.resilience.watchdog import DeadlockWatchdog
from repro.scenarios.spec import ScenarioSpec

#: Virtual workers per locality of the lattice graph (capped by the
#: machine's active cores) — enough to show starvation, few enough that the
#: event count stays tractable.
MAX_WORKERS_PER_LOCALITY = 16


def virtual_machine(
    config: RunConfig,
    max_workers: int,
    constants: ModelConstants = DEFAULT_CONSTANTS,
) -> Tuple[int, float, NetworkModel]:
    """The virtual runtime a run of ``config`` executes on: workers per
    locality (the node's active cores, at most ``max_workers``), each
    worker's flop rate (scaled so the node's throughput is preserved under
    the cap) and a fresh model of the machine's interconnect."""
    workers = min(config.active_cores, max_workers)
    net = config.machine.interconnect
    network = NetworkModel(
        latency_s=net.latency_us * 1e-6,
        bandwidth_Bps=net.bandwidth_gbs * 1e9,
        action_overhead_s=net.action_overhead_us * 1e-6,
        local_copy_Bps=config.machine.node.memory_bw_gbs * 1e9,
        name=net.name,
    )
    return workers, _cpu_rate(config, constants) / workers, network


@dataclass
class TaskGraphResult:
    makespan_s: float
    cells_per_second: float
    utilization: float
    starvation_events: int
    messages: int
    tasks: int
    #: Messages lost to injected faults (zero on clean runs).
    messages_dropped: int = 0


@dataclass(frozen=True)
class StepNode:
    """One node of the step graph.

    ``kind`` is a pool-task kind ("hydro.flux", "fmm.p2p", "fmm.multipole"),
    "ghost" (a transfer event: promise + engine post or network message,
    occupying no worker), or "barrier" (a pure ``when_all``).  ``deps`` are
    ids of earlier nodes; builders emit in topological order.
    """

    id: int
    name: str
    kind: str
    locality: int
    cost: float
    deps: Tuple[int, ...]
    #: Ghost-transfer routing (ghost nodes only).
    src_locality: int = -1
    size_bytes: int = 0


@dataclass
class StepGraph:
    """The declarative task graph of one timestep."""

    nodes: List[StepNode] = field(default_factory=list)
    #: Ids of the nodes whose completion ends the step.
    finals: Tuple[int, ...] = ()

    def add(
        self,
        name: str,
        kind: str,
        locality: int = 0,
        cost: float = 0.0,
        deps: Tuple[int, ...] = (),
        src_locality: int = -1,
        size_bytes: int = 0,
    ) -> int:
        node_id = len(self.nodes)
        self.nodes.append(
            StepNode(
                id=node_id,
                name=name,
                kind=kind,
                locality=locality,
                cost=cost,
                deps=deps,
                src_locality=src_locality,
                size_bytes=size_bytes,
            )
        )
        return node_id

    @property
    def n_pool_tasks(self) -> int:
        """Worker-occupying tasks (excludes ghost events and barriers)."""
        return sum(1 for n in self.nodes if n.kind not in ("ghost", "barrier"))


class TaskGraphSimulator:
    """Builds and runs the per-step task graph of a scenario."""

    def __init__(
        self,
        spec: ScenarioSpec,
        config: RunConfig,
        constants: ModelConstants = DEFAULT_CONSTANTS,
        faults: Optional[FaultSpec] = None,
    ) -> None:
        """``faults`` injects a seeded message-loss schedule into the
        network."""
        if spec.n_subgrids > 20_000:
            raise ValueError(
                "the task-graph simulator is for small configurations; "
                "use the analytic model at scale"
            )
        self.spec = spec
        self.config = config
        self.constants = constants
        self.workers, self.core_rate, self.network = virtual_machine(
            config, MAX_WORKERS_PER_LOCALITY, constants
        )
        if faults is not None:
            self.network.fault_injector = faults.injector()

        # Lay the sub-grids on a cubic lattice; block-partition the raveled
        # order (slab SFC) across localities.
        side = max(int(round(spec.n_subgrids ** (1.0 / 3.0))), 1)
        while side**3 < spec.n_subgrids:
            side += 1
        self.side = side
        self.n_subgrids = spec.n_subgrids
        self.owner: List[int] = [
            sg * config.nodes // spec.n_subgrids for sg in range(spec.n_subgrids)
        ]

    # -- topology ---------------------------------------------------------
    def _coords(self, sg: int) -> Tuple[int, int, int]:
        side = self.side
        return (sg // (side * side), (sg // side) % side, sg % side)

    def _neighbors(self, sg: int) -> List[int]:
        side = self.side
        i, j, k = self._coords(sg)
        out = []
        for di, dj, dk in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            ni, nj, nk = i + di, j + dj, k + dk
            if 0 <= ni < side and 0 <= nj < side and 0 <= nk < side:
                n = (ni * side + nj) * side + nk
                if n < self.n_subgrids:
                    out.append(n)
        return out

    # -- graph construction -------------------------------------------------
    def build_step_graph(self) -> StepGraph:
        """The step's task graph as declarative structure (no execution)."""
        spec, config, constants = self.spec, self.config, self.constants
        cells_per_subgrid = spec.subgrid_n**3
        # One kernel occupies one core for work / per-core-rate seconds.
        hydro_cost = cells_per_subgrid * spec.hydro_flops_per_cell / 3.0 / self.core_rate
        gravity_cost = cells_per_subgrid * spec.gravity_flops_per_cell / self.core_rate

        graph = StepGraph()
        neighbor_lists = [self._neighbors(sg) for sg in range(self.n_subgrids)]

        barrier: Optional[int] = None
        hydro_ids: Dict[Tuple[int, int], int] = {}  # (stage, sg) -> node id
        for stage in range(3):
            stage_ids: List[int] = []
            # Coalescing (docs/comms.md): every transfer crossing an
            # ordered locality pair in this stage becomes one bundled
            # ghost node — one message whose size is the sum of the member
            # faces — instead of one message per face.  Local transfers
            # under the §VII-B optimization stay per-face (they are
            # promise-guarded direct reads, not messages).
            bundle_ids: Dict[Tuple[int, int], int] = {}
            if config.coalesce:
                pair_edges: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
                for sg in range(self.n_subgrids):
                    for nb in neighbor_lists[sg]:
                        pair = (self.owner[nb], self.owner[sg])
                        if pair[0] == pair[1] and config.comm_local_optimization:
                            continue
                        pair_edges.setdefault(pair, []).append((nb, sg))
                for pair in sorted(pair_edges):
                    edges = pair_edges[pair]
                    bundle_deps = (
                        tuple(sorted({hydro_ids[(stage - 1, nb)] for nb, _ in edges}))
                        if stage
                        else ()
                    )
                    bundle_ids[pair] = graph.add(
                        name=f"bundle{stage}.{pair[0]}to{pair[1]}",
                        kind="ghost",
                        locality=pair[1],
                        deps=bundle_deps,
                        src_locality=pair[0],
                        size_bytes=spec.face_bytes * len(edges),
                    )
            for sg in range(self.n_subgrids):
                deps: List[int] = [] if barrier is None else [barrier]
                for nb in neighbor_lists[sg]:
                    pair = (self.owner[nb], self.owner[sg])
                    if pair in bundle_ids:
                        if bundle_ids[pair] not in deps:
                            deps.append(bundle_ids[pair])
                        continue
                    # The transfer reads the donor band nb published when it
                    # finished the previous stage — the promise-guarded
                    # direct read of the paper's §VII-B.
                    ghost_deps = (hydro_ids[(stage - 1, nb)],) if stage else ()
                    deps.append(
                        graph.add(
                            name=f"ghost{stage}.{nb}->{sg}",
                            kind="ghost",
                            locality=self.owner[sg],
                            deps=ghost_deps,
                            src_locality=self.owner[nb],
                            size_bytes=spec.face_bytes,
                        )
                    )
                node_id = graph.add(
                    name=f"hydro{stage}.{sg}",
                    kind="hydro.flux",
                    locality=self.owner[sg],
                    cost=hydro_cost,
                    deps=tuple(deps),
                )
                hydro_ids[(stage, sg)] = node_id
                stage_ids.append(node_id)
            # The paper's scheme has no global barrier between stages, but
            # each sub-grid depends on its neighbours' previous stage via the
            # ghosts; approximating with when_all keeps the graph quadratic-
            # free while preserving the critical path within ~one kernel.
            barrier = graph.add(
                name=f"hydro{stage}.barrier", kind="barrier", deps=tuple(stage_ids)
            )

        # Gravity: P2P on leaves, then the Multipole kernel level by level.
        p2p_ids = [
            graph.add(
                name=f"p2p.{sg}",
                kind="fmm.p2p",
                locality=self.owner[sg],
                cost=gravity_cost,
                deps=(barrier,),
            )
            for sg in range(self.n_subgrids)
        ]
        barrier = graph.add(name="p2p.barrier", kind="barrier", deps=tuple(p2p_ids))

        k = config.tasks_per_multipole_kernel
        level_count = spec.n_subgrids
        level = spec.max_level
        while level >= 0 and level_count >= 1:
            level_ids: List[int] = []
            per_loc = max(int(level_count) // config.nodes, 0)
            extra = int(level_count) % config.nodes
            for loc_id in range(config.nodes):
                n_nodes = per_loc + (1 if loc_id < extra else 0)
                if n_nodes == 0:
                    continue
                work = (
                    spec.fmm_interactions_per_subgrid
                    * constants.flops_per_interaction
                    / self.core_rate
                )
                for _node in range(n_nodes):
                    for _task in range(k):
                        level_ids.append(
                            graph.add(
                                name=f"m2l.L{level}",
                                kind="fmm.multipole",
                                locality=loc_id,
                                cost=work / k + constants.task_overhead_s,
                                deps=(barrier,),
                            )
                        )
            if level_ids:
                barrier = graph.add(
                    name=f"m2l.L{level}.barrier", kind="barrier", deps=tuple(level_ids)
                )
            level_count /= 8.0
            level -= 1

        graph.finals = (barrier,)
        return graph

    # -- execution ----------------------------------------------------------
    def run_step(self) -> TaskGraphResult:
        """Execute the step graph on the virtual runtime."""
        graph = self.build_step_graph()
        runtime = Runtime(
            n_localities=self.config.nodes,
            workers_per_locality=self.workers,
            network=self.network,
        )
        watchdog = DeadlockWatchdog(runtime)

        futures: Dict[int, Future] = {}
        for node in graph.nodes:
            deps = [futures[d] for d in node.deps]
            if node.kind == "barrier":
                futures[node.id] = when_all(deps)
            elif node.kind == "ghost":
                futures[node.id] = self._launch_ghost(runtime, node, deps)
            else:
                loc = runtime.localities[node.locality]
                futures[node.id] = loc.async_after(
                    deps,
                    None,
                    cost=node.cost,
                    name=node.name,
                    kind=node.kind,
                )
            watchdog.watch(futures[node.id], deps, name=node.name)

        final = when_all([futures[f] for f in graph.finals])
        watchdog.watch(final, [futures[f] for f in graph.finals], name="step.final")
        runtime.run_until_ready(final, watchdog=watchdog)
        makespan = runtime.engine.now
        starvation = sum(l.pool.starvation_events() for l in runtime.localities)
        return TaskGraphResult(
            makespan_s=makespan,
            cells_per_second=self.spec.n_cells / makespan,
            utilization=runtime.utilization(),
            starvation_events=starvation,
            messages=self.network.messages_sent,
            tasks=graph.n_pool_tasks,
            messages_dropped=self.network.messages_dropped,
        )

    def _launch_ghost(
        self, runtime: Runtime, node: StepNode, deps: List[Future]
    ) -> Future:
        """One ghost band arriving at the destination locality.

        The transfer starts once the producer published its donor band
        (``deps``; stage-0 bands are initial state, so no wait) and then
        costs either one promise-guarded local sync or a network message.

        A message additionally occupies a sender-side worker for the HPX
        action cost — one ``face_action_cpu_s`` dispatch per *message* plus
        a ``face_sync_cpu_s`` buffer copy per additional member face.  This
        is the CPU term coalescing amortises: a bundle of F faces pays one
        dispatch instead of F (see ``docs/comms.md``).
        """
        src_loc, dst_loc = node.src_locality, node.locality
        constants = self.constants
        promise = Promise(name=node.name)

        def transmit(_f=None) -> None:  # noqa: ANN001
            message = Message(
                src=src_loc,
                dst=dst_loc,
                payload=None,
                size_bytes=node.size_bytes,
                tag=node.name,
            )
            self.network.send(
                runtime.engine,
                message,
                lambda _m: promise.set_value(None),
                local=src_loc == dst_loc,
            )

        def launch() -> None:
            if src_loc == dst_loc and self.config.comm_local_optimization:
                # Direct memory access guarded by a promise/future pair.
                runtime.engine.post(
                    constants.face_sync_cpu_s, lambda: promise.set_value(None)
                )
            else:
                n_faces = max(1, node.size_bytes // max(self.spec.face_bytes, 1))
                pack_cost = (
                    constants.face_action_cpu_s
                    + (n_faces - 1) * constants.face_sync_cpu_s
                )
                pack = runtime.localities[src_loc].async_sharded(
                    [], None, cost=pack_cost,
                    shards=min(self.workers, n_faces),
                    name=f"{node.name}.pack", kind="ghost.pack",
                )
                pack.add_done_callback(transmit)

        if deps:
            when_all(deps).add_done_callback(lambda _f: launch())
        else:
            launch()
        return promise.get_future()
