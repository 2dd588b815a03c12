"""Process-parallel hydro execution: the RK3 step on real OS cores.

:class:`ProcessHydroExecutor` interprets the same step program
(:func:`repro.hydro.integrator.rk3_ops`) as the serial
:meth:`repro.hydro.integrator.HydroIntegrator.step` and the DES driver
(:class:`repro.core.distributed.DistributedHydroDriver`), with the leaves
partitioned over the worker processes of a
:class:`repro.amt.parallel.ParallelEngine`:

* the plan is the same :class:`repro.hydro.plan.HydroPlan` the serial
  integrator steps, asked for with ``nranks=nprocs`` and a
  :class:`repro.amt.shm.ShmArena` view as its arena: the shm segments are
  mapped *before* forking and every leaf sub-grid is adopted into them
  after, so each worker's numpy views alias the same pages — writes to
  owned interiors and ghost bands are visible everywhere without copies;
* the pool forks before any plan exists: the parent builds and verifies
  the plan, then sends each worker its slice
  (:meth:`repro.hydro.plan.HydroPlan.rank_slice`) — its own runs and the
  bundles it applies — from which the worker builds its plan and the
  :class:`repro.hydro.plan.RankStep` of its rank, the same rank ops the
  serial integrator runs;
* ghost exchange uses the plan's :class:`~repro.comms.bundle.PairBundle`
  per rank pair: the *destination* worker applies each of its bundles
  directly (pack reads donor interiors from shm, unpack writes its own
  ghost bands — a shm write plus the round's control message, the paper's
  local-communication optimisation, §VII-B).  The apply is synchronous:
  when it returns every ghost band of the rank is complete, so nothing is
  ever in flight and the rhs needs no interior/halo split;
* every round runs a **group** of program ops through one worker loop
  (:meth:`_WorkerState.run`): a ``fused`` item of the program is its
  group, any other op a group of one.  Ends of rounds order what the
  DES driver orders with futures — fills read only stage-``k-1``
  interiors, kernels read own interiors + ghosts, updates write own
  interiors — and inside a group that writes interiors after its ghost
  apply (the rhs updates as it goes), a ``ghosts`` → ``go`` handshake
  orders every rank's donor reads before any rank's interior writes.
  Groups are :func:`~repro.hydro.integrator.rk3_ops`'s, the handshake
  goes by the ops' effect rows;
* with ``detect_races`` each worker logs the effect rows its ops declare
  (:func:`~repro.hydro.plan.op_effect_rows`), stamped with the round and
  their position relative to the handshake, and the parent's
  :class:`~repro.analysis.shmrace.ShmRaceDetector` replays them after
  every round.

This module owns what is specific to real processes — the shm arenas, the
event log, the fork and the slice broadcast; topology
(partition, runs, bundles, reflux table, plan validity and lifecycle) is
the shared plan's and the arithmetic the shared ``RankStep``, so the result
is ``np.array_equal`` with both the serial step and the DES driver — the
cross-check contract of ``repro.core.crosscheck``.

Worker crashes (the ``FaultSpec`` crash fate, or a real SIGKILL) surface
as :class:`~repro.amt.parallel.WorkerCrashError`; the shm segments are
owned by the parent's lifecycle guard, so a crashed step never leaks
``/dev/shm`` entries.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.amt.parallel import NoteHandler, ParallelEngine, WorkerLink
from repro.amt.shm import ShmArena
from repro.analysis.planverify import require_verified, verify_process_plan
from repro.analysis.shmrace import (
    AFTER_WAIT,
    BEFORE_NOTE,
    ShmEventLog,
    ShmRaceDetector,
    handshake_positions,
)
from repro.comms.bundle import GhostBundlePlan
from repro.hydro.plan import HydroPlan, RankStep, ScratchArena
from repro.octree.fields import NFIELDS
from repro.octree.node import NodeKey
from repro.profiling.apex import CounterRegistry

#: The step program and the integrator whose settings it runs under.
from repro.hydro.integrator import HydroIntegrator, rk3_ops  # noqa: E402  (cycle-free)

#: Shm arenas are allocated for this many times the current leaf count, so
#: a growing regrid usually fits the existing segments and can be patched
#: in place (:meth:`ProcessHydroExecutor._replan_in_place`) instead of
#: re-forking the pool.
ARENA_HEADROOM = 1.5


class _WorkerState:
    """Everything one worker holds (child-side only): the plan it builds
    from its slice, its :class:`RankStep`, and the event-log state the rank
    ops know nothing about.  The pool forks before any plan exists, so a
    worker binds on its first ``replan``."""

    def __init__(
        self,
        rank: int,
        registry: CounterRegistry,
        executor: "ProcessHydroExecutor",
        link: Optional[WorkerLink] = None,
    ) -> None:
        self.rank = rank
        self.registry = registry
        self.ex = executor
        #: Mid-round notes/waits of the ghosts -> go handshake.
        self.link = link
        #: Race-detector epoch: one per round, advanced identically on
        #: every rank (rounds broadcast the same command sequence).
        self.epoch = 0
        log = executor.event_log
        self.events = log.writer(rank) if log is not None else None

    def replan(self, piece: Dict[str, Any]) -> None:
        """Build this worker's plan from its slice of the parent's verified
        one (:meth:`HydroPlan.rank_slice`): its own runs and the bundles it
        applies, over the re-sized view of the same shm pages.  Binding
        happens inside the barrier, so the round after this one runs
        entirely on the new topology."""
        ex = self.ex
        ex.size_views(len(piece["leaf_keys"]))
        plan = ex.plan = HydroPlan.from_slice(piece, ex.arena_view)
        #: The rank ops of the step program, over this rank's slot runs.
        self.step = RankStep(
            plan, self.rank, ex.integrator.eos, ex.integrator.omega,
            self.registry, accel_view=ex.accel_view, flux_view=ex.flux_view,
            scratch=ScratchArena(),
        )

    def rows(self, op: tuple) -> np.ndarray:
        """The op's declared effect rows on this rank
        (:meth:`HydroPlan.effect_rows` over the *live* plan arrays,
        including anything injected into the bundles).  The slice holds
        only this rank's bundles, so a ``ghost``'s union is its applies."""
        return self.ex.plan.effect_rows(op, None if op[0] == "ghost" else self.rank)

    # -- ghost exchange --------------------------------------------------------
    def ghost(self) -> None:
        """The destination applies each of its bundles in place (the slice
        holds only those)."""
        arena = self.ex.arena_view
        with self.registry.timer("hydro.ghost"):
            for bundle in self.ex.bundle_plan.bundles.values():
                bundle.apply(arena)

    def run(self, group: Tuple[tuple, ...], positions: List[int]) -> Tuple[Any, float]:
        """One round: the program ops of ``group`` back to back.

        The apply *is* the receive (donor interiors were sealed by the end
        of the previous round).  ``positions`` are the parent's
        :func:`~repro.analysis.shmrace.handshake_positions` of the group:
        when an op writes interiors after the ghost apply — interiors other
        ranks may still be reading as donors — the rank notes ``ghosts``
        once its applies are done and waits for the parent's ``go``, routed
        when every rank has noted, before that op: a message-grained
        happens-before edge in place of a barrier.

        Returns the last op's result and the seconds spent in rank ops.
        """
        self.epoch += 1
        out, busy, last = None, 0.0, BEFORE_NOTE
        for op, position in zip(group, positions):
            if self.events is not None:
                self.events.log(self.epoch, self.rows(op), position)
            if last == BEFORE_NOTE < position:
                self.link.note("ghosts")
            if last < AFTER_WAIT == position:
                self.link.wait("go")
            last = position
            if op[0] == "ghost":
                out = self.ghost()
                continue
            t0 = time.perf_counter()
            out = getattr(self.step, op[0])(*op[1:])
            busy += time.perf_counter() - t0
        return out, busy

    def dispatch(self, command: Tuple[str, Any]) -> Any:
        """The handler: ``("run", (group, positions))`` or ``("replan", piece)``."""
        kind, arg = command
        if kind == "run":
            return self.run(*arg)
        if kind == "replan":
            return self.replan(arg)
        raise ValueError(f"unknown command {kind!r}")


def _make_handler(executor: "ProcessHydroExecutor"):
    """The child-side handler factory (runs after fork; inherits the shm
    mappings and the event log, never a plan)."""

    def factory(rank: int, registry: CounterRegistry, link: WorkerLink):
        state = _WorkerState(rank, registry, executor, link)
        return state.dispatch

    return factory


class ProcessHydroExecutor:
    """Owns the shm arenas and the worker pool for process-parallel steps.

    Built by :meth:`HydroIntegrator.executor` for that integrator, the one
    owner of every setting the executor runs under: mesh, eos, omega,
    ``nprocs``, ``overlap`` (handed to :func:`rk3_ops`, which groups the
    program's ops into rounds),
    ``verify_plans`` (static verification of every (re)built plan before
    any worker sees it), ``detect_races`` (workers log shm accesses, the
    parent scans them at every barrier), the hydro plan lifecycle and the
    counter registry.  Call :meth:`step` repeatedly; :meth:`ensure`
    revalidates arenas and workers whenever the plan they serve stopped
    matching the mesh (topology moved, leaf storage rebound).  A regrid
    that fits the allocated arena headroom is published **in place** to
    the live workers — no re-fork; an overflow (or first build) takes the
    cold path, re-forks, and then publishes the same way.
    """

    def __init__(self, integrator: HydroIntegrator) -> None:
        self.integrator = integrator
        mesh = self.mesh = integrator.mesh
        self.engine = ParallelEngine(integrator.nprocs)
        self.nprocs = self.engine.nprocs
        self.event_log: Optional[ShmEventLog] = None
        self.race_detector: Optional[ShmRaceDetector] = None
        #: Test/diagnostic hook run on each freshly built bundle plan
        #: *before* verification and publishing — the seeded-race tests
        #: inject overlapping scatter indices here.
        self.bundle_plan_hook = None

        self.n = mesh.n
        self.ghost = mesh.ghost
        self.m = self.n + 2 * self.ghost

        self.arena: Optional[ShmArena] = None
        self.accel_arena: Optional[ShmArena] = None
        self.flux_arena: Optional[ShmArena] = None
        self.arena_view: Optional[np.ndarray] = None
        self.accel_view: Optional[np.ndarray] = None
        self.flux_view: Optional[np.ndarray] = None
        #: The plan the arenas and the live workers currently serve.
        self.plan: Optional[HydroPlan] = None
        #: Arena capacity in leaf slots (current count x ARENA_HEADROOM at
        #: allocation time); regrids that fit are patched in place.
        self.capacity_slots = 0
        self.faces_refluxed = 0
        #: What the ghost exchanges of the last step moved between ranks:
        #: one message per remote bundle per exchange, and its payload.
        self.payload_messages = 0
        self.payload_bytes = 0
        #: Per-step split of the rounds' wall time (seconds): the slowest
        #: rank's time in rank ops is compute, the rest of each round —
        #: ghost applies, the handshake, control messages, imbalance — is
        #: exchange wait.
        self.exchange_wait_s = 0.0
        self.compute_s = 0.0

    # -- lifecycle ------------------------------------------------------------
    @property
    def bundle_plan(self) -> Optional[GhostBundlePlan]:
        """The served plan's ghost bundles."""
        return self.plan.ghosts if self.plan is not None else None

    def ensure(self) -> None:
        """(Re)validate arenas, plan and the worker pool for the mesh.

        Three tiers: a served plan that still matches is free; a changed
        topology that fits the allocated arenas is patched in place
        (:meth:`_replan_in_place`); anything else — first build, arena
        overflow, rebound storage after a :meth:`close` — takes the cold
        path (:meth:`_cold_start`).  Either way the plan is the shared
        lifecycle's (``plan.hydro.*``); ``plan.bundle.{cold,delta}`` time
        only what this executor adds around it.
        """
        if (
            self.plan is not None
            and self.engine.started
            and self.plan.matches(self.mesh)
        ):
            return
        n_leaves = sum(1 for _ in self.mesh.leaves())
        t0 = time.perf_counter()
        # The rank count is fixed for an executor's lifetime, so only an
        # arena overflow forces the re-fork cold path.
        in_place = self.engine.started and n_leaves <= self.capacity_slots
        tier = "delta" if in_place else "cold"
        build_s = (self._replan_in_place if in_place else self._cold_start)(n_leaves)
        reg = self._registry()
        reg.sample(f"plan.bundle.{tier}", time.perf_counter() - t0 - build_s)
        reg.increment(f"plan.bundle.{tier}_builds")

    def _registry(self) -> CounterRegistry:
        return self.integrator._registry()

    def size_views(self, n_leaves: int) -> None:
        """Size the three arena views for ``n_leaves`` slots (parent and,
        on a replan, every worker — same pages, new shapes)."""
        n = self.n
        self.arena_view = self.arena.ndarray((n_leaves * NFIELDS * self.m**3,))
        self.accel_view = self.accel_arena.ndarray((n_leaves, 3, n, n, n))
        self.flux_view = self.flux_arena.ndarray(
            (n_leaves, 3, 2, NFIELDS, n, n)
        )

    def _cold_start(self, n_leaves: int) -> float:
        """Allocate arenas with headroom (and the event log), fork, then
        publish the plan like an in-place replan.  Forking first keeps the
        plan build, the face traces and the verifier's temporaries out of
        every worker's inherited heap."""
        self.close()
        n = self.n
        cap = max(n_leaves, int(math.ceil(n_leaves * ARENA_HEADROOM)))
        self.capacity_slots = cap
        self.arena = ShmArena(cap * NFIELDS * self.m**3 * 8)
        self.accel_arena = ShmArena(cap * 3 * n**3 * 8)
        self.flux_arena = ShmArena(cap * 6 * NFIELDS * n**2 * 8)
        if self.integrator.detect_races:
            self.event_log = ShmEventLog(self.nprocs)
            self.race_detector = ShmRaceDetector(self.event_log)
        self.engine = ParallelEngine(self.engine.nprocs, timeout=self.engine.timeout)
        if self.race_detector is not None:
            self.engine.round_observer = self.race_detector.scan
        self.engine.start(_make_handler(self))
        return self._publish(n_leaves)

    def _replan_in_place(self, n_leaves: int) -> float:
        """Re-adopt the regridded mesh into the live arenas and publish the
        new plan to the live workers — no re-fork."""
        # Detach surviving leaves from the arena first: the new layout
        # overlaps the old one in the same shm pages, so adoption must not
        # read storage it is about to overwrite.
        self._detach_leaves()
        return self._publish(n_leaves)

    def _publish(self, n_leaves: int) -> float:
        """The tail of both tiers: ask the integrator's lifecycle for the
        ``nprocs``-rank plan adopted into the arena, verify it, and send
        each rank its slice — the one way a worker gets a plan, and the
        invalidation message of every regrid.  Returns the seconds the plan
        build took.  A tail that raises stops the pool, so no worker ever
        steps an unverified or stale plan."""
        self.size_views(n_leaves)
        t0 = time.perf_counter()
        self.plan = self.integrator.plans.plan_for(
            self.mesh, self._registry(), nranks=self.nprocs, out=self.arena_view
        )
        build_s = time.perf_counter() - t0
        try:
            if self.bundle_plan_hook is not None:
                self.bundle_plan_hook(self.plan.ghosts)
            if self.integrator.verify_plans:
                require_verified(verify_process_plan(self.plan))
            for rank in range(self.nprocs):
                self.engine.send(rank, ("replan", self.plan.rank_slice(rank)))
            self.engine.gather()
        except BaseException:
            self.engine.shutdown()
            raise
        return build_s

    def _detach_leaves(self) -> None:
        """Copy leaf storage still aliasing the arena back to private
        numpy arrays."""
        if self.plan is None:
            return
        nodes = self.mesh.nodes
        for key, view in zip(self.plan.leaf_keys, self.plan.views):
            node = nodes.get(key)
            if node is not None and node.subgrid.data is view:
                node.subgrid.data = view.copy()

    def close(self) -> None:
        """Stop the workers and release every shm segment.

        Leaf storage is detached first — the mesh must stay readable (and
        steppable by another backend) after its shm pages are gone.
        """
        if self.engine.started:
            self.engine.shutdown()
        self._detach_leaves()
        # The served plan's views pin the shm mapping: let go of it here
        # and in the lifecycle (whose next request then builds afresh).
        plans = self.integrator.plans
        if plans.plan is self.plan:
            plans.drop()
        self.plan = None
        for arena in (self.arena, self.accel_arena, self.flux_arena):
            if arena is not None:
                arena.unlink()
        if self.event_log is not None:
            self.event_log.unlink()
        self.event_log = None
        self.race_detector = None
        self.arena = self.accel_arena = self.flux_arena = None
        self.arena_view = self.accel_view = self.flux_view = None
        self.capacity_slots = 0

    def __enter__(self) -> "ProcessHydroExecutor":
        return self

    def __exit__(self, *exc) -> None:  # noqa: ANN002
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:  # noqa: BLE001 - interpreter teardown
            pass

    # -- the step -------------------------------------------------------------
    def _go_after_ghosts(self) -> NoteHandler:
        """The note handler of a group that writes interiors after its ghost apply:
        route ``go`` to every rank once all of them have noted ``ghosts``."""
        noted = []

        def on_note(rank: int, tag: Any, payload: Any):
            noted.append(rank)
            if len(noted) == self.nprocs:
                return [(r, "go", None) for r in range(self.nprocs)]
            return ()

        return on_note

    def step(
        self, dt: float, gravity=None  # noqa: ANN001 - GravityCallback
    ) -> Dict[NodeKey, float]:
        """One RK3 step across the worker pool; returns per-leaf signals.

        Interprets :func:`repro.hydro.integrator.rk3_ops`: every item but
        ``accel`` is one round over a group of rank ops (a ``fused`` item
        is its group, any other op a group of one); ``accel`` runs here
        between rounds.  The parent solves gravity (when given) and
        restricts at the end — both read/write the shm arena directly, so
        the workers never see a stale field.
        """
        self.ensure()
        engine = self.engine
        self.payload_messages = 0
        self.payload_bytes = 0
        self.exchange_wait_s = 0.0
        self.compute_s = 0.0

        ghosts = self.plan.ghosts
        collect_fluxes = ghosts.face_counts["fine"] > 0
        remote_messages = len(ghosts.remote_pairs)
        remote_bytes = ghosts.remote_payload_bytes

        signals: Dict[NodeKey, float] = {}
        for op in rk3_ops(
            dt, collect_fluxes, gravity is not None, self.integrator.overlap
        ):
            if op[0] == "accel":
                # Workers are between rounds, so the parent may rewrite the
                # accel arena they read next round; the op's effect rows
                # declare the write.
                gravity(self.mesh, self.accel_view)
                continue
            group = op[1] if op[0] == "fused" else (op,)
            names = [name for name, *_ in group]
            if "ghost" in names:
                self.payload_messages += remote_messages
                self.payload_bytes += remote_bytes
            positions = handshake_positions([self.plan.effect_rows(sub) for sub in group])
            t0 = time.perf_counter()
            out = engine.round(("run", (group, positions)), on_note=(
                self._go_after_ghosts() if AFTER_WAIT in positions else None
            ))
            busy = max(seconds for _, seconds in out)
            self.compute_s += busy
            self.exchange_wait_s += time.perf_counter() - t0 - busy
            if "finish" in names:
                for per_worker, _ in out:
                    signals.update(per_worker)
            elif "reflux" in names:
                self.faces_refluxed += sum(faces for faces, _ in out)
        engine.harvest_timers(self._registry())
        self.mesh.restrict_all()
        return signals
