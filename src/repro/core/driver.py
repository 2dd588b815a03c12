"""OctoTigerSim: real physics plus machine-model timing per step.

Each :meth:`OctoTigerSim.step` does two coupled things:

1. advances the *actual* simulation state — SSP-RK3 hydro with FMM gravity
   on the AMR octree (numerics identical to the serial reference
   integrator, tested against it), and
2. executes the step's task graph on the virtual AMT runtime under the
   selected machine model and run configuration, yielding the timing a
   distributed run of this mesh would take (cells/s, utilisation, power).

The mesh is partitioned over localities along the Morton curve before the
first step, mirroring Octo-Tiger's distribution, and the workload spec fed
to the task graph is *measured from the live mesh*, so refinement changes
propagate into the timing model.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.race import RaceDetector
from repro.analysis.spacesan import sanitizer_mode
from repro.core.diagnostics import Diagnostics, diagnostics
from repro.core.plancache import PlanCache
from repro.distsim.model import DEFAULT_CONSTANTS, ModelConstants
from repro.distsim.runconfig import RunConfig
from repro.distsim.taskgraph import TaskGraphResult, TaskGraphSimulator
from repro.gravity.fmm import FmmSolver
from repro.hydro.eos import IdealGasEOS
from repro.hydro.integrator import HydroIntegrator
from repro.machines.specs import FUGAKU, MachineModel
from repro.octree.mesh import AmrMesh
from repro.octree.node import NodeKey
from repro.octree.partition import sfc_partition
from repro.profiling.apex import CounterRegistry
from repro.resilience.faults import FaultSpec
from repro.resilience.protocol import RetryPolicy, UnrecoverableFault
from repro.resilience.watchdog import DeadlockError
from repro.scenarios.spec import ScenarioSpec, measured_spec, workload_from_mesh


@dataclass
class StepRecord:
    """Outcome of one step: physics + modelled performance."""

    step: int
    time: float
    dt: float
    virtual_seconds: float
    cells_per_second: float
    utilization: float
    node_power_w: float


class OctoTigerSim:
    """The integrated driver.

    Parameters
    ----------
    mesh:
        An initialised AMR mesh (typically from a scenario builder).
    machine / nodes:
        The machine model and node count for the virtual timing.  The
        physics is identical regardless — that is the portability property
        the paper demonstrates.  Read only when ``config`` is not given.
    config:
        Optimization knobs (SIMD, communication optimization, multipole
        task splitting...); defaults mirror the paper's tuned Fugaku setup.
        A given ``config`` is the source of the machine and node count too.
    """

    def __init__(
        self,
        mesh: AmrMesh,
        eos: Optional[IdealGasEOS] = None,
        omega: float = 0.0,
        cfl: float = 0.4,
        gravity: bool = True,
        gravity_order: int = 3,
        machine: MachineModel = FUGAKU,
        nodes: int = 1,
        config: Optional[RunConfig] = None,
        constants: ModelConstants = DEFAULT_CONSTANTS,
        empty_mass_threshold: float = 1e-12,
        sanitize: bool = False,
        faults: Optional[FaultSpec] = None,
        recovery: Any = True,
        checkpoint_every: int = 0,
        checkpoint_dir: Any = None,  # str | Path | None
        max_rollbacks: int = 8,
        backend: str = "des",
        nprocs: int = 2,
        overlap: bool = False,
        verify_plans: bool = True,
        detect_races: bool = False,
        plan_cache: Any = None,  # PlanCache | str | Path | None
    ) -> None:
        if backend not in ("des", "process"):
            raise ValueError(f"backend must be 'des' or 'process', got {backend!r}")
        #: "des": physics in-process, timing on the virtual clock (default).
        #: "process": the hydro step runs on ``nprocs`` real worker
        #: processes (:mod:`repro.amt.parallel`), bit-identical; gravity is
        #: solved in the parent either way.
        self.backend = backend
        self.nprocs = nprocs
        #: Process backend only: fused schedule — each RK stage's ghost,
        #: rhs and update as one dependency-grained round, bit-identical
        #: to the BSP rounds (the ``--overlap`` ablation flag).
        self.overlap = overlap
        #: Checker wiring for the process backend: refuse statically
        #: unverified plans (default) and optionally log/replay shm access
        #: events at every barrier (``detect_races``).  No effect on "des".
        self.verify_plans = verify_plans
        self.detect_races = detect_races
        self.mesh = mesh
        self.eos = eos or IdealGasEOS()
        self.config = config or RunConfig(machine=machine, nodes=nodes)
        self.machine = self.config.machine
        self.constants = constants
        self.counters = CounterRegistry()
        #: Resilience: ``faults`` injects a seeded fault schedule into every
        #: step's virtual network; ``recovery`` (default on) enables the
        #: acknowledged-retransmit transport; ``checkpoint_every`` > 0 writes
        #: periodic checkpoints so :meth:`run` can roll back and replay after
        #: an unrecoverable fault (retries exhausted, node crash).
        self.faults = faults
        if recovery is True:
            recovery = RetryPolicy()
        self.recovery: Optional[RetryPolicy] = recovery or None
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.max_rollbacks = max_rollbacks
        self._series = None
        #: A crashed locality rejoins after the first rollback (restart heals
        #: the node); one-shot like the paper's "1 out of 20 runs".
        self._crash_recovered = False
        #: Bumped per rollback so replayed steps draw fresh fault schedules —
        #: the network environment after a restart is not the one that failed.
        self._replay_epoch = 0
        #: When True, each step runs under the analysis suite: the physics
        #: under the memory-space sanitizer (collect mode), the task graph
        #: through the static checker and with the dynamic race detector
        #: observing the virtual pools.  Findings accumulate here and in the
        #: ``sanitize.*`` counters instead of raising, so a long run reports
        #: everything at the end.
        self.sanitize = sanitize
        self.sanitizer_findings: List[Any] = []

        #: Persistent content-addressed plan store (fingerprint-keyed; see
        #: :mod:`repro.core.plancache` and ``docs/plan_lifecycle.md``).  A
        #: string/path builds a :class:`PlanCache` rooted there; ``None``
        #: disables persistence (in-memory delta maintenance still runs).
        self.plan_cache = PlanCache.of(plan_cache)

        self.gravity_solver: Optional[FmmSolver] = None
        if gravity:
            self.gravity_solver = FmmSolver(
                order=gravity_order,
                empty_mass_threshold=empty_mass_threshold,
                verify_plans=verify_plans,
                plan_cache=self.plan_cache,
            )
            # Route the solver's per-phase timers (fmm.plan, fmm.p2m_m2m,
            # fmm.m2l, fmm.l2p, fmm.p2p) into this run's counter registry.
            self.gravity_solver.registry = self.counters
        self.integrator = self._make_integrator(mesh, cfl, omega)
        sfc_partition(mesh, self.config.nodes)
        self._spec: Optional[ScenarioSpec] = None
        #: The last fault-free virtual timing and the inputs it is a pure
        #: function of (see :meth:`_virtual_timing`).
        self._timing: Tuple[Optional[tuple], Optional[TaskGraphResult]] = (None, None)
        self.records: List[StepRecord] = []
        self.last_phi: Optional[Dict[NodeKey, np.ndarray]] = None

    def _make_integrator(
        self, mesh: AmrMesh, cfl: float, omega: float
    ) -> HydroIntegrator:
        """The hydro integrator for ``mesh`` with this run's gravity solver
        and execution options — the one construction site, shared by
        ``__init__`` and the post-fault :meth:`_rollback`."""
        gravity_cb = None
        if self.gravity_solver is not None:
            gravity_cb = self.gravity_solver.as_gravity_callback()
        integrator = HydroIntegrator(
            mesh, self.eos, cfl=cfl, omega=omega, gravity=gravity_cb,
            backend="process" if self.backend == "process" else "serial",
            nprocs=self.nprocs,
            overlap=self.overlap,
            verify_plans=self.verify_plans,
            detect_races=self.detect_races,
            plan_cache=self.plan_cache,
        )
        # Route the integrator's per-phase timers (hydro.plan, hydro.ghost,
        # hydro.reconstruct, hydro.riemann, hydro.update) into this run's
        # counter registry, next to the fmm.* phases.
        integrator.registry = self.counters
        return integrator

    def close(self) -> None:
        """Shut down the process backend's worker pool and shm arenas (no-op
        on the DES backend)."""
        self.integrator.close()

    # -- configuration --------------------------------------------------------
    @classmethod
    def from_config(
        cls,
        mesh: AmrMesh,
        config,  # noqa: ANN001 - repro.util.config.Config
        machine: MachineModel = FUGAKU,
        nodes: int = 1,
        omega: Optional[float] = None,
        backend: str = "des",
        nprocs: int = 2,
        overlap: bool = False,
        plan_cache: Any = None,  # PlanCache | str | Path | None
    ) -> "OctoTigerSim":
        """Build a driver from a validated :class:`repro.util.config.Config`.

        Maps the dotted configuration keys (the Octo-Tiger-options analog)
        onto the solver and runtime knobs; ``omega`` overrides
        ``frame.omega`` when the scenario provides the equilibrium value.
        """
        eos = IdealGasEOS(
            gamma=config["hydro.gamma"], dual_eta=config["hydro.dual_energy_eta"]
        )
        run_config = RunConfig(
            machine=machine,
            nodes=nodes,
            simd=config["simd.abi"] != "scalar",
            comm_local_optimization=config["comm.local_optimization"],
            coalesce=config["comm.coalesce"],
            tasks_per_multipole_kernel=config["runtime.tasks_per_kernel"],
        )
        sim = cls(
            mesh,
            eos=eos,
            omega=config["frame.omega"] if omega is None else omega,
            cfl=config["hydro.cfl"],
            gravity=config["gravity.enabled"],
            gravity_order=config["gravity.order"],
            machine=machine,
            nodes=nodes,
            config=run_config,
            backend=backend,
            nprocs=nprocs,
            overlap=overlap,
            plan_cache=plan_cache,
        )
        if sim.gravity_solver is not None:
            sim.gravity_solver.theta = config["gravity.theta"]
            sim.gravity_solver.angmom_correction = config["gravity.angmom_correction"]
        sim.integrator.reconstruction = config["hydro.reconstruction"]
        return sim

    # -- restart -------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls,
        path,  # noqa: ANN001 - str | Path
        eos: Optional[IdealGasEOS] = None,
        **kwargs,  # noqa: ANN003 - forwarded to __init__
    ) -> "OctoTigerSim":
        """Resume a simulation from a checkpoint file.

        Restores the mesh, simulation time and step count; remaining
        driver options are taken from ``kwargs`` (they are configuration,
        not state — the same checkpoint can resume on a different machine
        model, which is the portability story in miniature).
        """
        from repro.ioutil import load_checkpoint

        mesh, meta = load_checkpoint(path)
        sim = cls(mesh, eos=eos, omega=meta["extra"].get("omega", 0.0), **kwargs)
        sim.integrator.time = meta.get("time", 0.0)
        sim.integrator.steps_taken = meta.get("step", 0)
        return sim

    def save_checkpoint(self, path, extra: Optional[Dict] = None):  # noqa: ANN001
        """Write the current state; records time/step/omega for restart."""
        from repro.ioutil import save_checkpoint

        payload = {"omega": self.integrator.omega}
        if extra:
            payload.update(extra)
        return save_checkpoint(
            self.mesh,
            path,
            time=self.integrator.time,
            step=self.integrator.steps_taken,
            extra=payload,
        )

    # -- workload ----------------------------------------------------------
    @property
    def spec(self) -> ScenarioSpec:
        """The live mesh's workload.  With gravity on, the pair and face
        totals are read off the plans the step uses (the same numbers
        :func:`workload_from_mesh` re-derives by traversal, at the
        solver's ``theta``); a hydro-only run has no FMM plan to read."""
        if self._spec is None:
            solver = self.gravity_solver
            if solver is None:
                self._spec = workload_from_mesh(self.mesh, name="driver")
            else:
                fmm = solver.plan_for(self.mesh)
                faces = self.integrator.plan_for(self.mesh).ghosts.face_counts
                self._spec = measured_spec(
                    self.mesh, "driver",
                    m2l_pairs=fmm.n_m2l_pairs + fmm.n_near_pairs,
                    p2p_pairs=fmm.p2p_pair_count,
                    ghost_faces=faces["same"] + faces["coarse"] + 4 * faces["fine"],
                )
        return self._spec

    def invalidate_workload(self) -> None:
        """Call after refinement changes the mesh structure."""
        self._spec = None
        sfc_partition(self.mesh, self.config.nodes)

    def regrid(self, criterion, max_level: int):  # noqa: ANN001, ANN201
        """Adapt the mesh to the current state and re-partition.

        Octo-Tiger regrids periodically on density/tracer criteria
        (paper SIII-C); returns the
        :class:`~repro.octree.regrid.RegridResult`.
        """
        from repro.octree.regrid import regrid as _regrid

        result = _regrid(self.mesh, criterion, max_level=max_level)
        if result.changed:
            self.invalidate_workload()
            # Announce the exact topology delta so the next plan rebuild is
            # incremental: the integrator invalidates only the ghost face
            # traces the delta touched (the FMM plan derives the same delta
            # from its own stored topology).
            self.integrator.notify_regrid(result.delta)
            self.counters.increment("regrid.refined", result.refined)
            self.counters.increment("regrid.coarsened", result.coarsened)
        return result

    # -- stepping ------------------------------------------------------------
    def step(self, dt: Optional[float] = None) -> StepRecord:
        space_guard = sanitizer_mode(collect=True) if self.sanitize else nullcontext([])
        with space_guard as space_findings:
            with self.counters.timer("wall.step"):
                dt_used = self.integrator.step(dt)
        if space_findings:
            self.sanitizer_findings.extend(space_findings)
            self.counters.increment("sanitize.space_findings", len(space_findings))
        if self.gravity_solver is not None and self.gravity_solver.last_stats:
            stats = self.gravity_solver.last_stats
            self.counters.sample("fmm.m2l_pairs", stats.m2l_pairs)
            self.counters.sample("fmm.near_pairs", stats.near_pairs)
            self.counters.sample("fmm.p2p_pairs", stats.p2p_pairs)

        timing = self._virtual_timing()
        record = StepRecord(
            step=self.integrator.steps_taken,
            time=self.integrator.time,
            dt=dt_used,
            virtual_seconds=timing.makespan_s,
            cells_per_second=timing.cells_per_second,
            utilization=timing.utilization,
            node_power_w=self.machine.power.node_power(
                min(timing.utilization, 1.0), self.config.frequency_ghz
            ),
        )
        self.records.append(record)
        self.counters.sample("virtual.step_seconds", timing.makespan_s)
        return record

    def run(self, n_steps: int, dt: Optional[float] = None) -> List[StepRecord]:
        """Advance ``n_steps``; with faults + checkpointing enabled this is
        the resilient loop: periodic checkpoints, and on an unrecoverable
        fault (retransmission gave up / node crash) roll back to the last
        checkpoint and replay.  Replay is bit-deterministic, so the final
        state matches an uninterrupted run exactly."""
        if self.faults is None and not self.checkpoint_every:
            return [self.step(dt) for _ in range(n_steps)]
        return self._run_resilient(n_steps, dt)

    def _run_resilient(self, n_steps: int, dt: Optional[float]) -> List[StepRecord]:
        series = self._checkpoint_series()
        self._write_checkpoint(series)  # rollback target before the first step
        target = self.integrator.steps_taken + n_steps
        rollbacks = 0
        records: List[StepRecord] = []
        while self.integrator.steps_taken < target:
            try:
                record = self.step(dt)
            except (UnrecoverableFault, DeadlockError) as exc:
                if isinstance(exc, DeadlockError):
                    self.counters.increment("resilience.watchdog_trips")
                if self.recovery is None or self.checkpoint_every <= 0:
                    raise
                rollbacks += 1
                if rollbacks > self.max_rollbacks:
                    raise UnrecoverableFault(
                        f"giving up after {self.max_rollbacks} rollbacks; "
                        f"last fault: {exc}"
                    ) from exc
                self.counters.increment("resilience.rollbacks")
                self._rollback(series)
                records = [r for r in records if r.step <= self.integrator.steps_taken]
                continue
            records.append(record)
            if (
                self.checkpoint_every > 0
                and self.integrator.steps_taken % self.checkpoint_every == 0
            ):
                self._write_checkpoint(series)
        return records

    # -- resilience ----------------------------------------------------------
    def _checkpoint_series(self):  # noqa: ANN202 - CheckpointSeries
        if self._series is None:
            from repro.ioutil import CheckpointSeries

            directory = self.checkpoint_dir
            if directory is None:
                import tempfile

                directory = tempfile.mkdtemp(prefix="repro-ckpt-")
            self._series = CheckpointSeries(directory, prefix="driver")
        return self._series

    def _write_checkpoint(self, series) -> None:  # noqa: ANN001
        series.write(
            self.mesh,
            self.integrator.steps_taken,
            time=self.integrator.time,
            extra={"omega": self.integrator.omega},
        )
        self.counters.increment("resilience.checkpoints")

    def _rollback(self, series) -> None:  # noqa: ANN001
        """Restore the newest checkpoint and rebind solvers to the mesh."""
        mesh, meta = series.load_latest()
        self.mesh = mesh
        self.integrator.close()  # old worker pool aliases the pre-rollback mesh
        restored = self._make_integrator(
            mesh,
            self.integrator.cfl,
            meta["extra"].get("omega", self.integrator.omega),
        )
        restored.reconstruction = self.integrator.reconstruction
        restored.reflux = self.integrator.reflux
        restored.time = meta.get("time", 0.0)
        restored.steps_taken = meta.get("step", 0)
        self.integrator = restored
        sfc_partition(mesh, self.config.nodes)
        self._spec = None
        self.records = [r for r in self.records if r.step <= restored.steps_taken]
        # The crashed node came back with the restart: heal the crash fault
        # so the replay is not wedged by the same injection, and reseed the
        # fault streams (the post-restart network is a fresh environment).
        self._crash_recovered = True
        self._replay_epoch += 1

    def _effective_faults(self) -> Optional[FaultSpec]:
        if self.faults is None:
            return None
        if self._crash_recovered and self.faults.crash_locality >= 0:
            return self.faults.without_crash()
        return self.faults

    def _virtual_timing(self) -> TaskGraphResult:
        """The step's modelled timing.  Without faults or the sanitizer it
        is a pure function of ``(spec, config, constants)``, so the last
        result is reused while those compare equal; fault and sanitizer
        runs draw per-step schedules and keep the per-step simulation."""
        faults = self._effective_faults()
        inputs = (self.spec, self.config, self.constants)
        reusable = faults is None and not self.sanitize
        if reusable and self._timing[0] == inputs:
            return self._timing[1]
        simulator = TaskGraphSimulator(
            *inputs,
            faults=faults,
            recovery=self.recovery if faults is not None else None,
            fault_stream=self.integrator.steps_taken
            + 1_000_003 * self._replay_epoch,
        )
        try:
            if not self.sanitize:
                result = simulator.run_step()
            else:
                static = simulator.static_check()
                detector = RaceDetector()
                result = simulator.run_step(detector=detector)
                self.sanitizer_findings.extend(static)
                self.sanitizer_findings.extend(detector.findings)
                self.counters.increment("sanitize.static_findings", len(static))
                self.counters.increment("sanitize.race_findings", len(detector.findings))
                self.counters.increment("sanitize.tasks_checked", detector.tasks_checked)
        finally:
            self._harvest_resilience_counters(simulator)
        if reusable:
            self._timing = (inputs, result)
        return result

    def _harvest_resilience_counters(self, simulator: TaskGraphSimulator) -> None:
        if self.faults is None:
            return
        network = simulator.network
        self.counters.increment("resilience.messages_dropped", network.messages_dropped)
        self.counters.increment("resilience.messages_delayed", network.messages_delayed)
        self.counters.increment(
            "resilience.messages_duplicated", network.messages_duplicated
        )
        if simulator.transport is not None:
            stats = simulator.transport.stats
            self.counters.increment("resilience.retransmits", stats.retransmits)
            self.counters.increment("resilience.acks", stats.acks_received)
            self.counters.increment(
                "resilience.duplicates_suppressed", stats.duplicates_suppressed
            )

    # -- diagnostics -----------------------------------------------------------
    def diagnostics(self) -> Diagnostics:
        phi = None
        if self.gravity_solver is not None:
            phi = self.gravity_solver.solve(self.mesh).phi
            self.last_phi = phi
        return diagnostics(self.mesh, phi)

    def mean_cells_per_second(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.cells_per_second for r in self.records]))
