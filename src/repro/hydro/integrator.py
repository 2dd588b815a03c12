"""SSP-RK3 time integration over the AMR mesh.

The third-order strong-stability-preserving Runge-Kutta scheme Octo-Tiger
uses:

    U1 = U0 + dt L(U0)
    U2 = 3/4 U0 + 1/4 U1 + 1/4 dt L(U1)
    U  = 1/3 U0 + 2/3 U2 + 2/3 dt L(U2)

Each stage fills ghosts, evaluates the flux divergence on every leaf, adds
gravity / rotating-frame sources, and applies floors.  After the full step
the entropy tracer is re-synchronised with the energy where the dual-energy
switch is inactive, and interior nodes are restricted from their children.

The stage order exists once, as data: :func:`rk3_ops` yields the ordered
ops of one step (``ghost → rhs`` per stage, the rhs updating each
sub-batch as it goes, then ``reflux → update`` for the sub-batches a
coarse-fine face defers; framed by ``begin`` / ``finish``, after the
parent's one gravity solve), and the kernel-level ops are the methods of
one :class:`repro.hydro.plan.RankStep`.
Three interpreters run that program:

* **serial** — :meth:`HydroIntegrator.step` inline, over rank 0 of the
  one-rank :class:`repro.hydro.plan.HydroPlan` (stacked per-level kernels;
  the ghost exchange is the plan's single ``(0, 0)`` bundle);
* **process** — ``backend="process"``: every op (or ``fused`` group) is
  one round of :class:`repro.hydro.process_backend.ProcessHydroExecutor`,
  each worker running it on the ``RankStep`` over the leaves it owns;
* **DES** — :class:`repro.core.distributed.DistributedHydroDriver`: every
  rank op is a task on its locality of the virtual AMT runtime, and the
  ghost exchange one message per remote locality pair.

The per-leaf loops are the numerics oracle ``step_reference(integrator,
dt)`` in ``tests/oracles/hydro_step.py`` (like the FMM's
``solve_reference``); all three interpreters are bit-identical to it.

Every path folds the per-leaf CFL signal reduction into the end of the
step, so :meth:`HydroIntegrator.timestep` serves the next dt from a cache
instead of re-walking the mesh with a second primitives pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.hydro.eos import IdealGasEOS
from repro.hydro.plan import HydroPlan, HydroPlanLifecycle, RankStep
from repro.hydro.timestep import global_timestep
from repro.octree.mesh import AmrMesh
from repro.octree.node import NodeKey
from repro.profiling.apex import CounterRegistry, global_registry

if TYPE_CHECKING:
    from repro.core.plancache import PlanCache

#: Signature of a gravity callback ``(mesh, out) -> None``: fill ``out``, the
#: slot-ordered ``(L, 3, N, N, N)`` acceleration stack (slots in sorted leaf
#: key order, :attr:`~repro.hydro.plan.HydroPlan.leaf_keys`), every row.
GravityCallback = Callable[[AmrMesh, np.ndarray], None]

# Convex-combination coefficients (a0, a1): U_new = a0 U0 + a1 (U + dt L(U)).
_RK3_STAGES = ((0.0, 1.0), (0.75, 0.25), (1.0 / 3.0, 2.0 / 3.0))


def rk3_ops(
    dt: float,
    collect_fluxes: bool,
    use_accel: bool,
    overlap: bool = False,
) -> Iterator[tuple]:
    """The ordered ops of one stacked SSP-RK3 step — the single definition
    every interpreter (serial, process, DES) runs.

    Parent ops: ``("accel",)`` solves gravity once per step, the callback
    filling the slot-ordered acceleration stack in place; ``("ghost",)`` is
    the whole ghost exchange.
    Rank ops name :class:`repro.hydro.plan.RankStep` methods and carry
    their arguments: ``begin``, ``rhs(collect_fluxes, use_accel, a0, a1,
    dt)`` (divergence, sources and update per sub-batch), ``reflux``,
    ``update(a0, a1, dt)`` of the sub-batches the reflux corrects (only
    with ``collect_fluxes``; :meth:`~repro.hydro.plan.HydroPlan.sub_batches`)
    and ``finish``.

    With ``overlap`` every stage's ``ghost, rhs`` is grouped as
    ``("fused", ops)`` — the same ops in the same order, so flattening the
    groups gives the ``overlap=False`` program verbatim.  The reflux reads
    the flux rows of all ranks, so it keeps its barrier.
    """
    if use_accel:
        yield ("accel",)
    yield ("begin",)
    for a0, a1 in _RK3_STAGES:
        stage = (("ghost",), ("rhs", collect_fluxes, use_accel, a0, a1, dt))
        yield from [("fused", stage)] if overlap else stage
        if collect_fluxes:
            yield ("reflux",)
            yield ("update", a0, a1, dt)
    yield ("finish",)


class HydroIntegrator:
    """Drives SSP-RK3 steps over the whole mesh.

    :meth:`step` runs the step program (:func:`rk3_ops`) over the cached
    :class:`~repro.hydro.plan.HydroPlan` — inline (``backend="serial"``) or
    fanned out over worker processes (``backend="process"``);
    the per-leaf oracle ``tests/oracles/hydro_step.py`` is what the tests
    compare both against.  Set ``registry`` to route the ``hydro.*``
    per-phase timers into a specific :class:`CounterRegistry` instead of the
    process-global one.
    """

    def __init__(
        self,
        mesh: AmrMesh,
        eos: Optional[IdealGasEOS] = None,
        omega: float = 0.0,
        gravity: Optional[GravityCallback] = None,
        backend: str = "serial",
        nprocs: int = 2,
        overlap: bool = False,
        verify_plans: bool = True,
        detect_races: bool = False,
        plan_cache: Optional["PlanCache"] = None,
    ) -> None:
        if backend not in ("serial", "process"):
            raise ValueError(
                f"backend must be 'serial' or 'process', got {backend!r}"
            )
        self.mesh = mesh
        self.eos = eos or IdealGasEOS()
        self.omega = omega
        #: Solved once per step, before the first stage.
        self.gravity = gravity
        #: "serial" runs in-process; "process" fans the step out over a
        #: :class:`repro.hydro.process_backend.ProcessHydroExecutor` pool.
        self.backend = backend
        self.nprocs = nprocs
        #: Process backend only: run each stage's ghost and rhs as one
        #: dependency-grained round instead of two barrier rounds
        #: (bit-identical to the BSP schedule; off = ablation baseline).
        self.overlap = overlap
        #: Process backend only: static plan verification before any worker
        #: receives a plan and dynamic shm race detection at every barrier (see
        #: :mod:`repro.analysis.planverify` / :mod:`repro.analysis.shmrace`).
        self.verify_plans = verify_plans
        self.detect_races = detect_races
        self._executor = None  # lazy ProcessHydroExecutor
        self.registry: Optional[CounterRegistry] = None
        self.time = 0.0
        self.steps_taken = 0
        self.last_dt = 0.0
        self.faces_refluxed = 0
        #: The hydro plan lifecycle — current plan, face-trace cache and
        #: the optional persistent :class:`repro.core.plancache.PlanCache`
        #: (ghost bundle arrays looked up by mesh fingerprint before
        #: re-tracing) — shared with the executor this integrator creates,
        #: so the cache is honoured on either backend.
        self.plans = HydroPlanLifecycle(plan_cache)
        #: (topology_version, steps_taken, {leaf key: peak signal}) from the
        #: end of the last step — valid until the mesh or the state moves on.
        self._signal_cache: Optional[Tuple[int, int, Dict[NodeKey, float]]] = None

    # -- plan cache -----------------------------------------------------------
    def plan_for(self) -> HydroPlan:
        """The current plan of this integrator's mesh, rebuilt only when the
        topology (by content :meth:`~repro.octree.mesh.AmrMesh.fingerprint`)
        changed or leaf storage was rebound — through the shared lifecycle
        (:class:`repro.util.lifecycle.PlanLifecycle`, ``plan.hydro.*``).
        The serial backend asks for the one-rank plan; the process backend
        for the one its executor serves (``nprocs`` ranks, in shm)."""
        if self.backend == "process":
            ex = self.executor()
            ex.ensure()
            return ex.plan
        return self.plans.plan_for(self.mesh, self._registry())

    def invalidate_plan(self) -> None:
        """Drop the cached plan (the next step rebuilds it)."""
        self.plans.drop()

    def _registry(self) -> CounterRegistry:
        return self.registry if self.registry is not None else global_registry()

    # -- timestep -------------------------------------------------------------
    def _cached_signals(self) -> Optional[Dict[NodeKey, float]]:
        """Per-leaf signals from the last step, if still valid."""
        if self._signal_cache is None:
            return None
        version, step_no, signals = self._signal_cache
        if version != self.mesh.topology_version or step_no != self.steps_taken:
            return None
        return signals

    def timestep(self) -> float:
        """The next global CFL dt, served from the end-of-step signal cache
        when valid (every step path populates it) — exactly equal to a full
        :func:`global_timestep` recomputation.

        The cache assumes leaf fields did not change outside ``step``; code
        that mutates the state directly between steps should call
        :func:`global_timestep` itself (or take another step first).
        """
        return global_timestep(self.mesh, self.eos, signals=self._cached_signals())

    def _record_signals(self, signals: Dict[NodeKey, float]) -> None:
        self._signal_cache = (self.mesh.topology_version, self.steps_taken, signals)

    # -- full step ------------------------------------------------------------
    def step(self, dt: Optional[float] = None) -> float:
        """Advance the mesh by one RK3 step; returns the dt used.

        The serial interpreter of :func:`rk3_ops`: parent ops run inline
        against the cached plan, rank ops on one
        :class:`~repro.hydro.plan.RankStep` spanning the whole mesh.
        Bit-identical to the per-leaf oracle: every kernel reuses the
        reference's elementwise building blocks on the stacked blocks, the
        reflux table replays the reference's face order, and maxima /
        convex combinations are order-independent per element.
        """
        if self.backend == "process":
            return self._step_process(dt)
        reg = self._registry()
        with reg.timer("hydro.plan"):
            plan = self.plan_for()
        if dt is None:
            dt = self.timestep()
        use_accel = self.gravity is not None
        # The plan knows whether any coarse-fine interface exists at all
        # (fine-class ghost faces); without one, refluxing cannot trigger
        # and the boundary-flux extraction is pure overhead.
        collect_fluxes = plan.ghosts.face_counts["fine"] > 0
        rank = RankStep(
            plan, 0, self.eos, self.omega, reg, use_accel, collect_fluxes
        )
        ghosts = plan.ghosts.bundles[(0, 0)]
        signals: Dict[NodeKey, float] = {}
        for op, *args in rk3_ops(dt, collect_fluxes, use_accel):
            if op == "ghost":
                with reg.timer("hydro.ghost"):
                    ghosts.apply(plan.arena)
            elif op == "accel":
                self.gravity(self.mesh, rank.accel_view)
            elif op == "reflux":
                self.faces_refluxed += rank.reflux()
            elif op == "finish":
                signals = rank.finish()
            else:
                getattr(rank, op)(*args)
        self.mesh.restrict_all()
        self.time += dt
        self.steps_taken += 1
        self.last_dt = dt
        self._record_signals(signals)
        return dt

    # -- process-parallel step ------------------------------------------------
    def executor(self):
        """The lazy process-backend executor (workers fork on first step);
        it reads every setting it runs under from this integrator."""
        if self._executor is None:
            from repro.hydro.process_backend import ProcessHydroExecutor

            self._executor = ProcessHydroExecutor(self)
        return self._executor

    def close(self) -> None:
        """Shut down the worker pool and release shm (process backend)."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def _step_process(self, dt: Optional[float] = None) -> float:
        """One RK3 step fanned out over the worker processes.

        Same program, same rank ops as the serial :meth:`step`, partitioned
        over disjoint leaf sets — bit-identical to it (the cross-check
        harness in :mod:`repro.core.crosscheck` asserts it).  A failed step
        (worker crash, timeout) tears the pool and its shm arenas down on
        the way out, so nothing is left behind in ``/dev/shm``.
        """
        ex = self.executor()
        if dt is None:
            dt = self.timestep()
        try:
            signals = ex.step(dt, gravity=self.gravity)
        except BaseException:
            self.close()
            raise
        self.faces_refluxed = ex.faces_refluxed
        self.time += dt
        self.steps_taken += 1
        self.last_dt = dt
        self._record_signals(signals)
        return dt

    def run(self, t_end: float, max_steps: int = 100_000) -> int:
        """Step until ``t_end`` (clipping the final dt); returns step count."""
        taken = 0
        while self.time < t_end and taken < max_steps:
            dt = min(self.timestep(), t_end - self.time)
            self.step(dt)
            taken += 1
        return taken
