"""Distributed functional hydro: the HPX execution of a real timestep.

Where :class:`~repro.core.driver.OctoTigerSim` computes physics serially and
*models* the distributed timing, this driver actually executes the step as a
distributed task graph on the AMT runtime:

* every leaf lives on a locality (Morton partition);
* each RK stage's ghost exchange is one coalesced bundle per ordered
  locality pair (:mod:`repro.comms`): a pack task on the source, one
  network message, an unpack task on the destination — or a single
  promise-guarded apply task and no message when the pair is local and the
  communication optimization is on (the paper's SVII-B mechanism, executed
  rather than modelled);
* the hydro kernel of a leaf is a task on its owner, dependent on every
  bundle that covers its ghost bands and the previous stage's update;
* anti-dependencies are honoured: a leaf's stage-k update waits for every
  bundle pack that still reads its stage-(k-1) interior.

The payoff is a strong test: the distributed execution produces **the same
field values** as the serial reference integrator, step for step, while the
virtual clock reports a genuinely scheduled (not estimated) makespan and the
network reports real message counts.

Scope: hydro only (no gravity, no reflux) — enough to pin the distribution
semantics; the rotating-frame source is supported because it is local.
The per-face exchange this replaced survives only as a *pricing* ablation
in :mod:`repro.distsim` (``RunConfig.coalesce`` / ``--no-coalesce``, Fig. 8);
real multi-process execution is ``HydroIntegrator(backend="process")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.amt.future import Future, Promise, make_ready_future, when_all
from repro.amt.locality import Runtime
from repro.amt.network import Message, NetworkModel
from repro.distsim.model import DEFAULT_CONSTANTS, ModelConstants, _cpu_rate
from repro.distsim.runconfig import RunConfig
from repro.hydro.eos import IdealGasEOS
from repro.hydro.integrator import _RK3_STAGES
from repro.hydro.plan import HydroPlan, build_hydro_plan, stacked_resync_tau_kernel
from repro.hydro.solver import dudt_subgrid
from repro.hydro.sources import rotating_frame_source
from repro.octree.fields import NFIELDS, Field
from repro.octree.mesh import AmrMesh
from repro.octree.node import NodeKey
from repro.octree.partition import sfc_partition
from repro.resilience.faults import FaultSpec
from repro.resilience.protocol import ReliableTransport, RetryPolicy
from repro.resilience.watchdog import DeadlockWatchdog


@dataclass
class DistributedStepResult:
    dt: float
    makespan_s: float
    messages: int
    bytes_sent: int
    tasks_completed: int
    utilization: float
    messages_dropped: int = 0
    retransmits: int = 0
    acks: int = 0
    #: ``messages`` split into application payloads vs protocol control
    #: traffic (acks).  Historically acks doubled ``messages`` under
    #: recovery; payload_messages is the number to compare across runs.
    payload_messages: int = 0
    control_messages: int = 0
    duplicates_suppressed: int = 0


def _bundle_members(plan: HydroPlan) -> Dict[Tuple[int, int], Tuple[list, list]]:
    """Task wiring: per pair bundle, ``(donor_keys, dest_keys)`` — the
    leaves whose interiors it reads and whose ghost bands it writes, i.e.
    the arena slots its gather / scatter index arrays touch, in slot
    (sorted-key) order."""
    chunk = NFIELDS * plan.m**3

    def keys_of(*index_arrays: np.ndarray) -> list:
        slots = np.unique(
            np.concatenate([a.ravel() for a in index_arrays]) // chunk
        )
        return [plan.leaf_keys[slot] for slot in slots]

    return {
        pair: (keys_of(b.copy_src, b.fine_src), keys_of(b.copy_dst, b.fine_dst))
        for pair, b in plan.ghosts.bundles.items()
    }


class DistributedHydroDriver:
    """Executes RK3 hydro steps as distributed task graphs."""

    def __init__(
        self,
        mesh: AmrMesh,
        eos: Optional[IdealGasEOS] = None,
        omega: float = 0.0,
        config: Optional[RunConfig] = None,
        constants: ModelConstants = DEFAULT_CONSTANTS,
        workers_per_locality: int = 8,
        faults: Optional[FaultSpec] = None,
        recovery: Any = None,
    ) -> None:
        from repro.machines.specs import FUGAKU

        self.mesh = mesh
        self.eos = eos or IdealGasEOS()
        self.omega = omega
        self.config = config or RunConfig(machine=FUGAKU, nodes=2)
        self.constants = constants
        self.faults = faults
        if recovery is True:
            recovery = RetryPolicy()
        self.recovery: Optional[RetryPolicy] = recovery or None
        self.workers = min(self.config.active_cores, workers_per_locality)
        node_rate = _cpu_rate(self.config, constants)
        self.core_rate = node_rate / self.workers
        sfc_partition(mesh, self.config.nodes)
        self.time = 0.0
        self.steps_taken = 0
        self.last_result: Optional[DistributedStepResult] = None
        #: The hydro plan over ``config.nodes`` ranks (arena + coalescing
        #: bundles), rebuilt only when it stops matching the mesh, and the
        #: task-wiring membership derived from it (:meth:`_hydro_plan`).
        self._plan: Optional[HydroPlan] = None
        self._members: Dict[Tuple[int, int], Tuple[list, list]] = {}

    # -- cost helpers --------------------------------------------------------
    def _kernel_cost(self) -> float:
        cells = self.mesh.n**3
        spec_flops = 2_200.0  # hydro flops per cell per step, 3 stages
        return cells * spec_flops / 3.0 / self.core_rate

    def _network(self) -> NetworkModel:
        net = self.config.machine.interconnect
        return NetworkModel(
            latency_s=net.latency_us * 1e-6,
            bandwidth_Bps=net.bandwidth_gbs * 1e9,
            action_overhead_s=net.action_overhead_us * 1e-6,
            local_copy_Bps=self.config.machine.node.memory_bw_gbs * 1e9,
            name=net.name,
        )

    # -- step ------------------------------------------------------------------
    def step(self, dt: float) -> DistributedStepResult:
        mesh, eos = self.mesh, self.eos
        leaves = mesh.leaves()
        network = self._network()
        if self.faults is not None:
            network.fault_injector = self.faults.injector(stream=self.steps_taken)
        runtime = Runtime(
            n_localities=self.config.nodes,
            workers_per_locality=self.workers,
            network=network,
        )
        transport = (
            ReliableTransport(network, runtime.engine, policy=self.recovery)
            if self.recovery is not None
            else None
        )
        watchdog = DeadlockWatchdog(runtime)
        kernel_cost = self._kernel_cost()
        fill_cost = self.constants.face_sync_cpu_s

        # Arena payoff: every leaf interior is one strided view of the
        # flat buffer, so the stage-0 state is captured with a single
        # copy instead of one per leaf.
        self._hydro_plan()
        u0_stack = self._stacked_interior().copy()
        u0: Dict[NodeKey, np.ndarray] = {
            key: u0_stack[slot]
            for slot, key in enumerate(sorted(leaf.key for leaf in leaves))
        }

        update_futures: Dict[NodeKey, Future] = {
            leaf.key: make_ready_future(None) for leaf in leaves
        }

        prev_bundle_done: Dict[Tuple[int, int], Future] = {}
        for a0, a1 in _RK3_STAGES:
            # 1. Ghost fills as coalesced bundles (one message per locality
            # pair): ``cover_futures`` is what each leaf's kernel waits
            # for, ``anti_futures`` what reads each leaf's current interior.
            cover_futures, anti_futures, prev_bundle_done = self._bundle_stage(
                runtime, network, transport, watchdog,
                update_futures, fill_cost, prev_bundle_done,
            )
            # 2. Kernels + updates with anti-dependencies.
            new_updates: Dict[NodeKey, Future] = {}
            rhs_store: Dict[NodeKey, np.ndarray] = {}
            for leaf in leaves:
                loc = runtime.localities[leaf.locality]
                deps = list(cover_futures[leaf.key])

                def compute(leaf=leaf, rhs_store=rhs_store):  # noqa: ANN001
                    rhs, _ = dudt_subgrid(leaf.subgrid, leaf.dx, eos)
                    if self.omega != 0.0:
                        s = leaf.subgrid.interior
                        u = leaf.subgrid.data[:, s, s, s]
                        x, y, _ = leaf.cell_centers()
                        rhs = rhs + rotating_frame_source(u, self.omega, x, y)
                    rhs_store[leaf.key] = rhs

                kernel_future = loc.async_after(
                    deps, compute, cost=kernel_cost,
                    name=f"hydro.{leaf.key}", kind="hydro.kernel",
                )
                # The update may not run until every bundle pack that
                # reads this leaf's current interior has executed.
                anti = anti_futures[leaf.key]

                def update(leaf=leaf, a0=a0, a1=a1, rhs_store=rhs_store):  # noqa: ANN001
                    # Stage coefficients bound as defaults: the task body
                    # executes after this loop has moved on.  In-place form
                    # of ``a0*u0 + a1*(u + dt*rhs)`` — same elementary ops
                    # (addition commuted), so bit-identical to the
                    # expression form at a third of the temporaries.
                    s = leaf.subgrid.interior
                    u = leaf.subgrid.data[:, s, s, s]
                    u += dt * rhs_store.pop(leaf.key)
                    u *= a1
                    u += a0 * u0[leaf.key]
                    self._floors_view(u)

                watchdog.watch(kernel_future, deps, name=f"hydro.{leaf.key}")
                new_updates[leaf.key] = loc.async_after(
                    [kernel_future, *anti], update, cost=0.0,
                    name=f"update.{leaf.key}", kind="hydro.update",
                )
                watchdog.watch(
                    new_updates[leaf.key], [kernel_future, *anti],
                    name=f"update.{leaf.key}",
                )
            update_futures = new_updates

        barrier = when_all(list(update_futures.values()))
        watchdog.watch(barrier, list(update_futures.values()), name="step.final")
        runtime.run_until_ready(barrier, watchdog=watchdog)

        # Same elementwise resync as the serial integrator, applied to the
        # whole arena in one set of vectorized ops.
        stacked_resync_tau_kernel(self._stacked_interior(), eos)
        mesh.restrict_all()

        self.time += dt
        self.steps_taken += 1
        result = DistributedStepResult(
            dt=dt,
            makespan_s=runtime.engine.now,
            messages=network.messages_sent,
            bytes_sent=network.bytes_sent,
            tasks_completed=sum(l.pool.tasks_completed for l in runtime.localities),
            utilization=runtime.utilization(),
            messages_dropped=network.messages_dropped,
            retransmits=transport.stats.retransmits if transport else 0,
            acks=transport.stats.acks_received if transport else 0,
            payload_messages=network.payload_messages,
            control_messages=network.control_messages,
            duplicates_suppressed=(
                transport.stats.duplicates_suppressed if transport else 0
            ),
        )
        self.last_result = result
        return result

    # -- pieces ------------------------------------------------------------------
    def _hydro_plan(self) -> HydroPlan:
        """The plan the serial and process backends step too, built over
        ``config.nodes`` ranks with this driver's ``leaf.locality`` map as
        the explicit assignment.  Building it adopts the arena: every
        leaf's sub-grid becomes a view of one flat buffer (values
        preserved), so pack/unpack are single fancy-indexed
        gathers/scatters over the whole mesh.  :meth:`HydroPlan.matches`
        (fingerprint + view identity) decides validity, so a regrid *and*
        anything else re-adopting the mesh's storage trigger a rebuild."""
        if self._plan is None or not self._plan.matches(self.mesh):
            plan = self._plan = build_hydro_plan(
                self.mesh,
                nranks=self.config.nodes,
                assignment={leaf.key: leaf.locality for leaf in self.mesh.leaves()},
                reuse=self._plan,
            )
            self._members = _bundle_members(plan)
        return self._plan

    def _stacked_interior(self) -> np.ndarray:
        """All leaf interiors as one ``(leaves, fields, n, n, n)`` view.

        Valid only after :meth:`_hydro_plan` adopted the arena for the
        current topology; slot order is sorted leaf key.
        """
        plan = self._plan
        s = slice(plan.ghost_width, plan.ghost_width + plan.n)
        stacked = plan.arena.reshape(-1, NFIELDS, plan.m, plan.m, plan.m)
        return stacked[:, :, s, s, s]

    def _bundle_stage(
        self,
        runtime: Runtime,
        network: NetworkModel,
        transport: Optional[ReliableTransport],
        watchdog: DeadlockWatchdog,
        update_futures: Dict[NodeKey, Future],
        fill_cost: float,
        prev_done: Dict[Tuple[int, int], Future],
    ):
        """One RK stage's ghost exchange as coalesced pair bundles.

        Per ordered locality pair: a **pack** task on the source locality
        (gathers + restricts every crossing band into the bundle's flat
        payload), one network message, and an **unpack** task on the
        destination (scatters into the ghost bands).  Same-locality pairs
        under the local-communication optimization collapse to a single
        work-split **apply** task and send nothing.  Virtual cost is
        ``fill_cost`` per member face, spread over the pool via
        :meth:`~repro.amt.locality.Locality.async_sharded`.

        ``prev_done`` carries each bundle's previous-stage completion: the
        payload buffer is reused across stages, so stage ``k``'s pack may
        not overwrite it until stage ``k-1``'s unpack has scattered it.
        """
        plan = self._hydro_plan()
        arena, bundles = plan.arena, plan.ghosts.bundles
        fill_done: Dict[Tuple[int, int], Future] = {}
        pack_done: Dict[Tuple[int, int], Future] = {}
        # One send per neighbor-locality bundle — the coalesced pattern
        # R005 exists to enforce, not a per-item loop.
        for pair in sorted(bundles):  # reprolint: sanctioned-bundle
            bundle = bundles[pair]
            src_loc = runtime.localities[bundle.src_locality]
            dst_loc = runtime.localities[bundle.dst_locality]
            donor_keys, dest_keys = self._members[pair]
            donor_deps = [update_futures[k] for k in donor_keys]
            dest_deps = [update_futures[k] for k in dest_keys]
            # Work-split granularity: a shard carries at least ~4 faces of
            # pack/unpack work — narrower shards cost more in per-task
            # overhead (real and virtual) than the parallelism they buy.
            shards = min(self.workers, max(1, bundle.n_faces // 4))
            name = f"bundle.{pair[0]}to{pair[1]}"
            if bundle.local and self.config.comm_local_optimization:
                seen = set()
                deps = [
                    f for f in donor_deps + dest_deps
                    if id(f) not in seen and not seen.add(id(f))
                ]
                done = src_loc.async_sharded(
                    deps, lambda b=bundle: b.apply(arena),
                    cost=fill_cost * bundle.n_faces, shards=shards,
                    name=name, kind="ghost.bundle.local",
                )
                watchdog.watch(done, deps, name=name)
                fill_done[pair] = done
                pack_done[pair] = done
                continue
            pack_deps = list(donor_deps)
            if pair in prev_done:
                pack_deps.append(prev_done[pair])
            pack = src_loc.async_sharded(
                pack_deps, lambda b=bundle: b.pack(arena),
                cost=0.5 * fill_cost * bundle.n_faces, shards=shards,
                name=f"{name}.pack", kind="ghost.bundle.pack",
            )
            watchdog.watch(pack, pack_deps, name=f"{name}.pack")
            promise = Promise(name=name)

            def send(_v, bundle=bundle, promise=promise, name=name):  # noqa: ANN001
                delivered = [False]

                def deliver(_m: Message) -> None:
                    # Guard against raw-network wire duplicates; the
                    # reliable transport already dedups per bundle.
                    if not delivered[0]:
                        delivered[0] = True
                        promise.set_value(None)

                message = Message(
                    bundle.src_locality, bundle.dst_locality, None,
                    bundle.nbytes, tag=name,
                )
                if transport is not None:
                    transport.send(message, deliver, local=bundle.local)
                else:
                    network.send(
                        runtime.engine, message, deliver, local=bundle.local
                    )

            pack.add_done_callback(send)
            arrived = promise.get_future()
            watchdog.watch(arrived, [pack], name=name)
            unpack_deps = [arrived, *dest_deps]
            unpack = dst_loc.async_sharded(
                unpack_deps, lambda b=bundle: b.unpack(arena),
                cost=0.5 * fill_cost * bundle.n_faces, shards=shards,
                name=f"{name}.unpack", kind="ghost.bundle.unpack",
            )
            watchdog.watch(unpack, unpack_deps, name=f"{name}.unpack")
            fill_done[pair] = unpack
            pack_done[pair] = pack
        # Per leaf: the bundles covering its ghost bands (what its kernel
        # waits for) and the packs reading its interior (what its update
        # waits for), in sorted pair order.
        cover_futures = {key: [] for key in plan.leaf_keys}
        anti_futures = {key: [] for key in plan.leaf_keys}
        for pair in sorted(bundles):
            donor_keys, dest_keys = self._members[pair]
            for key in dest_keys:
                cover_futures[key].append(fill_done[pair])
            for key in donor_keys:
                anti_futures[key].append(pack_done[pair])
        return cover_futures, anti_futures, fill_done

    def _floors_view(self, u: np.ndarray) -> None:
        np.maximum(u[Field.RHO], self.eos.rho_floor, out=u[Field.RHO])
        np.maximum(u[Field.TAU], 0.0, out=u[Field.TAU])
        np.maximum(u[Field.FRAC1], 0.0, out=u[Field.FRAC1])
        np.maximum(u[Field.FRAC2], 0.0, out=u[Field.FRAC2])
