"""Distributed functional hydro: the step program on the DES runtime.

Where :class:`~repro.core.driver.OctoTigerSim` computes physics serially and
*models* the distributed timing, this driver executes the step as a task
graph on the AMT runtime — the third interpreter of
:func:`repro.hydro.integrator.rk3_ops`, after the serial integrator and the
process backend:

* the plan is the shared :class:`~repro.hydro.plan.HydroPlan` over
  ``config.nodes`` ranks (the SFC partition of the *live* topology, so a
  regrid repartitions), and each locality owns the
  :class:`~repro.hydro.plan.RankStep` of its rank;
* a rank op (``begin``, ``rhs``, ``update``, ``finish``) is one work-split
  task on its locality, one shard per owned leaf;
* ``ghost`` is one coalesced bundle per ordered locality pair
  (:mod:`repro.comms`): a pack task on the source, one network message, an
  unpack task on the destination — or a single promise-guarded apply and
  no message when the pair is local and the communication optimization is
  on (the paper's SVII-B mechanism, executed rather than modelled);
* ``accel`` and ``reflux`` are joins over all ranks, before and after — the
  barriers the process backend keeps.

Every task carries its op's declared effect rows
(:func:`repro.hydro.plan.op_effect_rows`), checked by a fresh
:class:`~repro.analysis.race.RaceDetector` per step.

The rank ops run on the real arena, so the fields equal the serial
integrator's bit for bit (:mod:`repro.core.crosscheck` asserts it), while
the virtual clock reports a scheduled makespan and the network real
message counts.  The per-face exchange survives only as a *pricing*
ablation in :mod:`repro.distsim` (``RunConfig.coalesce``, Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.amt.future import Future, Promise, make_ready_future, when_all
from repro.amt.locality import Runtime
from repro.amt.network import Message
from repro.analysis.effects import (
    MODE_ACCUM, MODE_READ, MODE_WRITE, REGION_GHOST, REGION_INTERIOR, SEG_FIELDS, touches,
)
from repro.analysis.race import RaceDetector, RaceFinding
from repro.distsim.model import DEFAULT_CONSTANTS
from repro.distsim.runconfig import RunConfig
from repro.distsim.taskgraph import virtual_machine
from repro.hydro.eos import IdealGasEOS
from repro.hydro.integrator import GravityCallback, rk3_ops
from repro.hydro.plan import HydroPlan, HydroPlanLifecycle, RankStep, ScratchArena
from repro.octree.fields import NFIELDS
from repro.octree.mesh import AmrMesh
from repro.profiling.apex import CounterRegistry
from repro.resilience.watchdog import DeadlockWatchdog

#: Virtual workers per locality (capped by the machine's active cores).
WORKERS_PER_LOCALITY = 8

#: The cross-rank edges of a rank op beyond its rank's program order, read
#: from its effect rows: an op that reads its ghost bands waits for the
#: bundles *into* its rank (their unpacks write them), an op that writes
#: its interiors for the packs *out of* it (they read them as donors) —
#: the process backend's ghosts -> go handshake.
CROSS_RANK_WAITS = {"into": (MODE_READ, REGION_GHOST), "out": (MODE_WRITE, REGION_INTERIOR)}


@dataclass
class DistributedStepResult:
    dt: float
    makespan_s: float
    messages: int
    bytes_sent: int
    tasks_completed: int
    utilization: float
    messages_dropped: int = 0


class DistributedHydroDriver:
    """Interprets ``rk3_ops`` as distributed task graphs on the DES runtime."""

    def __init__(
        self,
        mesh: AmrMesh,
        eos: Optional[IdealGasEOS] = None,
        omega: float = 0.0,
        config: Optional[RunConfig] = None,
        gravity: Optional[GravityCallback] = None,
    ) -> None:
        from repro.machines.specs import FUGAKU

        self.mesh = mesh
        self.eos = eos or IdealGasEOS()
        self.omega = omega
        self.config = config or RunConfig(machine=FUGAKU, nodes=2)
        self.gravity = gravity
        #: The hydro plan over ``config.nodes`` ranks, rebuilt through the
        #: shared lifecycle whenever it stops matching the mesh.
        self.plans = HydroPlanLifecycle()
        #: The ``hydro.*`` kernel timers of this driver's rank ops.
        self.registry = CounterRegistry()
        self.time = 0.0
        self.steps_taken = 0
        self.faces_refluxed = 0
        self.last_result: Optional[DistributedStepResult] = None
        #: Race findings of every step, and the tasks checked for them.
        self.race_findings: List[RaceFinding] = []
        self.race_events = 0
        self._ranks: Tuple[Optional[HydroPlan], List[RankStep]] = (None, [])

    def _effects_of(
        self, plan: HydroPlan, op: tuple, units, mode: Optional[int] = None
    ) -> np.ndarray:
        """The effect rows of a task running ``op`` for ``units`` (ranks,
        or one bundle pair), or only its ``mode`` rows (a fresh array)."""
        rows = np.vstack([plan.effect_rows(op, u) for u in units])
        if mode is not None:
            rows = rows[rows[:, 0] == mode]
        if op[0] == "ghost":
            # Bundles into one rank scatter into the same ghost bands
            # concurrently here, but never into the same cell (the
            # bundle-dst-overlap proof of verify_bundle_plan), so their
            # writes commute with each other like accumulations.
            rows[rows[:, 0] == MODE_WRITE, 0] = MODE_ACCUM
        return rows

    def _rank_steps(
        self, plan: HydroPlan, use_accel: bool, collect_fluxes: bool
    ) -> List[RankStep]:
        """One :class:`RankStep` per locality, sharing the whole-mesh
        acceleration and boundary-flux stacks, each with its own scratch
        (their ``u0`` / ``dudt`` must not alias); rebuilt with the plan."""
        if self._ranks[0] is not plan:
            n, total, get = plan.n, plan.n_leaves, plan.scratch.get
            accel = get(("accel",), (total, 3, n, n, n)) if use_accel else None
            flux = (
                get(("flux",), (total, 3, 2, NFIELDS, n, n))
                if collect_fluxes else None
            )
            self._ranks = (plan, [
                RankStep(
                    plan, rank, self.eos, self.omega, self.registry,
                    use_accel, collect_fluxes, accel_view=accel,
                    flux_view=flux, scratch=ScratchArena(),
                )
                for rank in range(plan.nranks)
            ])
        return self._ranks[1]

    def step(self, dt: float) -> DistributedStepResult:
        plan = self.plans.plan_for(
            self.mesh, self.registry, nranks=self.config.nodes
        )
        collect_fluxes = plan.ghosts.face_counts["fine"] > 0
        use_accel = self.gravity is not None
        ranks = self._rank_steps(plan, use_accel, collect_fluxes)
        workers, core_rate, network = virtual_machine(
            self.config, WORKERS_PER_LOCALITY
        )
        runtime = Runtime(plan.nranks, workers, network=network)
        detector = RaceDetector()
        runtime.install_observer(detector)
        watchdog = DeadlockWatchdog(runtime)

        # The rhs price: 2200 hydro flops per owned cell per step, a third
        # of it per stage.
        owned = [sum(run.hi - run.lo for run in rank.runs) for rank in ranks]
        rhs_cost = [
            leaves * plan.n**3 * 2_200.0 / 3.0 / core_rate
            for leaves in owned
        ]
        bundles = plan.ghosts.bundles
        # Per rank: its last op, the bundles into it (what its rhs waits
        # for) and the packs reading its interior (what its update waits
        # for); per pair, the bundle's last unpack.
        front: List[Future] = [make_ready_future(None)] * plan.nranks
        waits: Dict[str, List[List[Future]]] = {
            "into": [[] for _ in ranks], "out": [[] for _ in ranks],
        }
        prev_done: Dict[Tuple[int, int], Future] = {}

        def spawn(rank, deps, fn, cost, shards, name, kind, effects):  # noqa: ANN001, ANN202
            future = runtime.localities[rank].async_sharded(
                deps, fn, cost=cost, shards=shards, name=name, kind=kind,
                effects=effects,
            )
            watchdog.watch(future, deps, name=name)
            return future

        def join(op: str) -> None:
            if op == "accel":
                self.gravity(self.mesh, ranks[0].accel_view)
            else:
                self.faces_refluxed += sum(rank.reflux() for rank in ranks)

        def exchange() -> None:
            """One ``ghost`` op: per ordered pair, pack → message → unpack,
            or one local apply; ``face_sync_cpu_s`` per member face."""
            # One send per neighbor-locality bundle — the coalesced pattern
            # R005 exists to enforce, not a per-item loop.
            for pair in sorted(bundles):  # reprolint: sanctioned-bundle
                bundle, (src, dst) = bundles[pair], pair
                # Work-split granularity: a shard carries at least ~4 faces
                # of pack/unpack work — narrower shards cost more in
                # per-task overhead (real and virtual) than they buy.
                shards = min(workers, max(1, bundle.n_faces // 4))
                cost = DEFAULT_CONSTANTS.face_sync_cpu_s * bundle.n_faces
                name = f"bundle.{src}to{dst}"
                if bundle.local and self.config.comm_local_optimization:
                    done = pack = spawn(
                        src, [front[src]], partial(bundle.apply, plan.arena),
                        cost, shards, name, "ghost.bundle.local",
                        self._effects_of(plan, ("ghost",), [pair]),
                    )
                else:
                    # The payload buffer is reused: the next pack waits for
                    # the previous unpack.
                    deps = [front[src], prev_done.get(pair, front[src])]
                    pack = spawn(
                        src, deps, partial(bundle.pack, plan.arena),
                        0.5 * cost, shards, f"{name}.pack", "ghost.bundle.pack",
                        self._effects_of(plan, ("ghost",), [pair], MODE_READ),
                    )
                    arrived = Promise(name=name)

                    def post(_v, bundle=bundle, arrived=arrived, name=name):  # noqa: ANN001
                        network.send(runtime.engine, Message(
                            bundle.src_locality, bundle.dst_locality, None,
                            bundle.nbytes, tag=name,
                        ), lambda _m: arrived.set_value(None), local=bundle.local)

                    pack.add_done_callback(post)
                    deps = [arrived.get_future(), front[dst]]
                    watchdog.watch(deps[0], [pack], name=name)
                    done = prev_done[pair] = spawn(
                        dst, deps, partial(bundle.unpack, plan.arena),
                        0.5 * cost, shards, f"{name}.unpack",
                        "ghost.bundle.unpack",
                        self._effects_of(plan, ("ghost",), [pair], MODE_WRITE),
                    )
                waits["into"][dst].append(done)
                waits["out"][src].append(pack)

        all_ranks = range(plan.nranks)
        for op in rk3_ops(dt, collect_fluxes, use_accel):
            name, args = op[0], op[1:]
            if name == "ghost":
                for per_rank in chain.from_iterable(waits.values()):
                    per_rank.clear()
                exchange()
            elif name in ("accel", "reflux"):
                deps = [*front, *chain.from_iterable(
                    chain.from_iterable(waits.values())
                )]
                front = [spawn(
                    0, deps, partial(join, name), 0.0, 1, name, f"hydro.{name}",
                    self._effects_of(plan, op, all_ranks),
                )] * plan.nranks
            else:
                for r, rank in enumerate(ranks):
                    deps = [front[r]]
                    for edge, (mode, region) in CROSS_RANK_WAITS.items():
                        if touches(plan.effect_rows(op, r), mode, SEG_FIELDS, region):
                            joined = when_all(waits[edge][r])
                            watchdog.watch(joined, waits[edge][r], name=f"{edge}.{r}")
                            deps.append(joined)
                    front[r] = spawn(
                        r, deps, partial(getattr(rank, name), *args),
                        rhs_cost[r] if name == "rhs" else 0.0,
                        max(1, owned[r]), f"{name}.{r}", f"hydro.{name}",
                        self._effects_of(plan, op, [r]),
                    )
        final = when_all(front)
        watchdog.watch(final, front, name="step.final")
        runtime.run_until_ready(final, watchdog=watchdog)
        self.mesh.restrict_all()
        self.race_findings.extend(detector.findings)
        self.race_events += detector.tasks_checked

        self.time += dt
        self.steps_taken += 1
        self.last_result = DistributedStepResult(
            dt=dt,
            makespan_s=runtime.engine.now,
            messages=network.messages_sent,
            bytes_sent=network.bytes_sent,
            tasks_completed=sum(l.pool.tasks_completed for l in runtime.localities),
            utilization=runtime.utilization(),
            messages_dropped=network.messages_dropped,
        )
        return self.last_result
