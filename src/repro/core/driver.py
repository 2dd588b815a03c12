"""OctoTigerSim: real physics, plus the step's modelled distributed timing.

Each :meth:`OctoTigerSim.step` advances the *actual* simulation state —
SSP-RK3 hydro with FMM gravity on the AMR octree (numerics identical to the
serial reference integrator, tested against it), in-process or on real
worker processes (``backend="process"``).  The step's record also carries
the timing a distributed run of this mesh would take under ``config``
(cells/s, utilisation, power), priced by the DES task-graph model from the
workload *measured off the live mesh*; it is a pure function of
``(spec, config)`` and is priced once per workload.

The mesh is partitioned over ``config.nodes`` localities along the Morton
curve before the first step, mirroring Octo-Tiger's distribution.  With
``checkpoint_every > 0``, :meth:`OctoTigerSim.run` checkpoints periodically
and rolls back and replays when the real step raises an
:class:`~repro.resilience.faults.UnrecoverableFault` (a worker process died
or stopped replying); replay is bit-exact.
"""

from __future__ import annotations

import shutil
import tempfile
import weakref
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.diagnostics import Diagnostics, diagnostics
from repro.core.plancache import PlanCache
from repro.distsim.runconfig import RunConfig
from repro.distsim.taskgraph import TaskGraphResult, TaskGraphSimulator
from repro.gravity.fmm import FmmSolver
from repro.hydro.eos import IdealGasEOS
from repro.hydro.integrator import HydroIntegrator
from repro.machines.specs import FUGAKU
from repro.octree.mesh import AmrMesh
from repro.octree.partition import sfc_partition
from repro.profiling.apex import CounterRegistry
from repro.resilience.faults import UnrecoverableFault
from repro.scenarios.spec import ScenarioSpec, measured_spec, workload_from_mesh

#: Sub-grids lighter than this are vacuum sources to the FMM (see
#: :attr:`repro.gravity.fmm.FmmSolver.empty_mass_threshold`).
EMPTY_MASS_THRESHOLD = 1e-12
#: Rollbacks :meth:`OctoTigerSim.run` attempts before it re-raises the fault.
MAX_ROLLBACKS = 8


@dataclass
class StepRecord:
    """Outcome of one step: physics + modelled performance under ``config``."""

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
    config:
        The machine model, node count and optimization knobs (SIMD,
        communication optimization, multipole task splitting...) the
        modelled timing is priced under; the default is one Fugaku node.
        The physics is identical regardless — that is the portability
        property the paper demonstrates.
    """

    def __init__(
        self,
        mesh: AmrMesh,
        eos: Optional[IdealGasEOS] = None,
        omega: float = 0.0,
        gravity: bool = True,
        config: Optional[RunConfig] = None,
        checkpoint_every: int = 0,
        checkpoint_dir: Any = None,  # str | Path | None
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
        self.config = config or RunConfig(machine=FUGAKU, nodes=1)
        self.counters = CounterRegistry()
        #: Resilience: ``checkpoint_every`` > 0 writes periodic checkpoints
        #: so :meth:`run` can roll back and replay after an unrecoverable
        #: fault of the real step (a worker process died or timed out).
        #: Without ``checkpoint_dir`` the series lives in a temporary
        #: directory the driver owns: pruned to the newest checkpoint after
        #: every write and removed by :meth:`close`.
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self._series = None
        self._remove_owned_dir: Optional[weakref.finalize] = None

        #: Persistent content-addressed plan store (fingerprint-keyed; see
        #: :mod:`repro.core.plancache` and ``docs/plan_lifecycle.md``).  A
        #: string/path builds a :class:`PlanCache` rooted there; ``None``
        #: disables persistence (in-memory delta maintenance still runs).
        self.plan_cache = PlanCache.of(plan_cache)

        self.gravity_solver: Optional[FmmSolver] = None
        if gravity:
            self.gravity_solver = FmmSolver(
                empty_mass_threshold=EMPTY_MASS_THRESHOLD,
                verify_plans=verify_plans,
                plan_cache=self.plan_cache,
            )
            # Route the solver's per-phase timers (fmm.plan, fmm.p2m_m2m,
            # fmm.m2l, fmm.l2p, fmm.p2p) into this run's counter registry.
            self.gravity_solver.registry = self.counters
        self.integrator = self._make_integrator(mesh, omega)
        sfc_partition(mesh, self.config.nodes)
        #: ``(mesh fingerprint, spec)`` of the last :attr:`spec`.
        self._spec: Tuple[Optional[str], Optional[ScenarioSpec]] = (None, None)
        #: The last virtual timing and the inputs it is a pure function of
        #: (see :meth:`_virtual_timing`).
        self._timing: Tuple[Optional[tuple], Optional[TaskGraphResult]] = (None, None)
        self.records: List[StepRecord] = []

    def _make_integrator(self, mesh: AmrMesh, omega: float) -> HydroIntegrator:
        """The hydro integrator for ``mesh`` with this run's gravity solver
        and execution options — the one construction site, shared by
        ``__init__`` and the post-fault :meth:`_rollback`."""
        integrator = HydroIntegrator(
            mesh, self.eos, omega=omega, gravity=self.gravity_solver,
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
        """Shut down the process backend's worker pool and shm arenas, and
        remove the checkpoint directory if the driver created it."""
        self.integrator.close()
        if self._remove_owned_dir is not None:
            self._remove_owned_dir()
            self._series = None

    # -- restart -------------------------------------------------------------
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
        """The live mesh's workload, memoised on its topology
        fingerprint.  With gravity on, the pair and face totals are read
        off the plans the step uses (the same numbers
        :func:`workload_from_mesh` re-derives by traversal at the FMM's
        :data:`~repro.gravity.fmm.THETA`); a hydro-only run has no FMM plan
        to read."""
        fingerprint = self.mesh.fingerprint()
        if self._spec[0] != fingerprint:
            solver = self.gravity_solver
            if solver is None:
                spec = workload_from_mesh(self.mesh, name="driver")
            else:
                fmm = solver.plan_for(self.mesh)
                faces = self.integrator.plan_for().ghosts.face_counts
                spec = measured_spec(
                    self.mesh, "driver",
                    m2l_pairs=fmm.n_m2l_pairs + fmm.n_near_pairs,
                    p2p_pairs=fmm.p2p_pair_count,
                    ghost_faces=faces["same"] + faces["coarse"] + 4 * faces["fine"],
                )
            self._spec = (fingerprint, spec)
        return self._spec[1]

    def regrid(self, criterion, max_level: int):  # noqa: ANN001, ANN201
        """Adapt the mesh to the current state and re-partition.

        Octo-Tiger regrids periodically on density/tracer criteria
        (paper SIII-C); returns the
        :class:`~repro.octree.regrid.RegridResult`.  Nothing is announced
        to the plans: the next step's plan requests derive what changed
        from the topology each plan was built for.
        """
        from repro.octree.regrid import regrid as _regrid

        result = _regrid(self.mesh, criterion, max_level=max_level)
        if result.changed:
            sfc_partition(self.mesh, self.config.nodes)
            self.counters.increment("regrid.refined", result.refined)
            self.counters.increment("regrid.coarsened", result.coarsened)
        return result

    # -- stepping ------------------------------------------------------------
    def step(self, dt: Optional[float] = None) -> StepRecord:
        with self.counters.timer("wall.step"):
            dt_used = self.integrator.step(dt)
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
            node_power_w=self.config.machine.power.node_power(
                min(timing.utilization, 1.0), self.config.frequency_ghz
            ),
        )
        self.records.append(record)
        self.counters.sample("virtual.step_seconds", timing.makespan_s)
        return record

    def run(self, n_steps: int, dt: Optional[float] = None) -> List[StepRecord]:
        """Advance ``n_steps``; with ``checkpoint_every > 0`` this is the
        resilient loop: periodic checkpoints, and when the step raises an
        :class:`UnrecoverableFault` (a worker process died or timed out)
        roll back to the newest checkpoint and replay.  Replay is
        bit-deterministic, so the final state matches an uninterrupted run
        exactly."""
        if self.checkpoint_every <= 0:
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
            except UnrecoverableFault as exc:
                rollbacks += 1
                if rollbacks > MAX_ROLLBACKS:
                    raise UnrecoverableFault(
                        f"giving up after {MAX_ROLLBACKS} rollbacks; "
                        f"last fault: {exc}"
                    ) from exc
                self.counters.increment("resilience.rollbacks")
                self._rollback(series)
                records = [r for r in records if r.step <= self.integrator.steps_taken]
                continue
            records.append(record)
            if self.integrator.steps_taken % self.checkpoint_every == 0:
                self._write_checkpoint(series)
        return records

    # -- resilience ----------------------------------------------------------
    def _checkpoint_series(self):  # noqa: ANN202 - CheckpointSeries
        if self._series is None:
            from repro.ioutil import CheckpointSeries

            directory = self.checkpoint_dir
            if directory is None:
                directory = tempfile.mkdtemp(prefix="repro-ckpt-")
                self._remove_owned_dir = weakref.finalize(
                    self, shutil.rmtree, directory, ignore_errors=True
                )
            self._series = CheckpointSeries(directory, prefix="driver")
        return self._series

    def _write_checkpoint(self, series) -> None:  # noqa: ANN001
        series.write(
            self.mesh,
            self.integrator.steps_taken,
            time=self.integrator.time,
            extra={"omega": self.integrator.omega},
        )
        if self.checkpoint_dir is None:
            series.prune(1)  # a rollback only ever reads the newest
        self.counters.increment("resilience.checkpoints")

    def _rollback(self, series) -> None:  # noqa: ANN001
        """Restore the newest checkpoint and rebind solvers to the mesh."""
        mesh, meta = series.load_latest()
        self.mesh = mesh
        self.integrator.close()  # old worker pool aliases the pre-rollback mesh
        restored = self._make_integrator(
            mesh, meta["extra"].get("omega", self.integrator.omega)
        )
        restored.time = meta.get("time", 0.0)
        restored.steps_taken = meta.get("step", 0)
        self.integrator = restored
        sfc_partition(mesh, self.config.nodes)
        self.records = [r for r in self.records if r.step <= restored.steps_taken]

    def _virtual_timing(self) -> TaskGraphResult:
        """The step's modelled timing: a pure function of ``(spec,
        config)``, so the last result is reused while those compare equal."""
        inputs = (self.spec, self.config)
        if self._timing[0] != inputs:
            self._timing = (inputs, TaskGraphSimulator(*inputs).run_step())
        return self._timing[1]

    # -- diagnostics -----------------------------------------------------------
    def diagnostics(self) -> Diagnostics:
        phi = None
        if self.gravity_solver is not None:
            phi = self.gravity_solver.solve(self.mesh).phi
        return diagnostics(self.mesh, phi)

