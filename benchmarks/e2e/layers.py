"""Per-layer metrics of the traced run.

Two sources, both read from outside the program: spans the benchmark records
around the public layer boundaries (:mod:`spans`), and deltas of the
program's always-on counter registry ``sim.counters`` over the traced
operations.  "Per op" means per timed operation — one driver step, plus the
regrid that precedes it on the regrid workload.
"""

from __future__ import annotations

import resource
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

import repro.core.driver as driver_module
from repro.distsim.taskgraph import TaskGraphSimulator
from repro.ioutil import load_checkpoint

from spans import Tracer
from stats import phase_mean, quantile, step_ms_of
from workloads import NPROCS, WARMUP_OPS, make_sim

#: The rows of the per-layer table must explain at least this share of the
#: operation span; the rest is ``core.unattributed_pct``.
CLOSURE_LIMIT_PCT = 5.0
HYDRO_PHASES = ("ghost", "reconstruct", "riemann", "update")
FMM_PHASES = ("p2m_m2m", "m2l", "l2p", "p2p")
ISOLATED_SOLVES = 10
PLANCACHE_HITS = 3
SIDE_STEPS = 20


class LayerProbe:
    """Installs the span wrappers on a live sim and accumulates registry
    and ``getrusage`` deltas over the traced operations."""

    def __init__(self, tracer: Tracer, sim) -> None:  # noqa: ANN001 - OctoTigerSim
        self.tracer = tracer
        self.sim = sim
        self.ops = 0
        self.time_s: Dict[str, float] = defaultdict(float)
        self.count: Dict[str, int] = defaultdict(int)
        self.rusage: List[Tuple[float, float, int]] = []
        #: Executor clocks and wire accounting (process backend; per-step
        #: values the executor resets at the start of every step).
        self.amt: Dict[str, float] = defaultdict(float)
        self.table: List[Tuple[str, float, float]] = []

    # -- wrappers ------------------------------------------------------------
    def install(self) -> None:
        wrap, sim = self.tracer.wrap, self.sim
        wrap(sim, "step", "core.step")
        wrap(sim, "regrid", "octree.regrid")
        wrap(driver_module, "sfc_partition", "octree.sfc_partition")
        wrap(TaskGraphSimulator, "run_step", "distsim.run_step")
        wrap(sim.integrator, "step", "hydro.step")
        wrap(sim.integrator, "timestep", "hydro.timestep")
        if sim.backend == "process":
            wrap(sim.integrator.executor(), "ensure", "plan.bundle")
        else:
            wrap(sim.integrator, "plan_for", "plan.hydro")
        if sim.gravity_solver is not None:
            wrap(sim.gravity_solver, "solve", "gravity.solve")
            wrap(sim.gravity_solver, "plan_for", "plan.fmm")

    def uninstall(self) -> None:
        self.tracer.unwrap_all()

    # -- per-op accounting ---------------------------------------------------
    def _registry(self) -> Dict[str, Tuple[int, float]]:
        counters = self.sim.counters
        return {n: (counters.count(n), counters.total(n)) for n in counters.names()}

    def before_op(self):  # noqa: ANN201
        return self._registry(), resource.getrusage(resource.RUSAGE_SELF)

    def after_op(self, before) -> None:  # noqa: ANN001
        registry0, usage0 = before
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        for name, (count, total) in self._registry().items():
            count0, total0 = registry0.get(name, (0, 0.0))
            self.count[name] += count - count0
            self.time_s[name] += total - total0
        self.rusage.append((
            (usage1.ru_utime - usage0.ru_utime) * 1e3,
            (usage1.ru_stime - usage0.ru_stime) * 1e3,
            usage1.ru_minflt - usage0.ru_minflt,
        ))
        if self.sim.backend == "process":
            executor = self.sim.integrator.executor()
            self.amt["exchange_wait_s"] += executor.exchange_wait_s
            self.amt["compute_s"] += executor.compute_s
            self.amt["payload_messages"] += executor.payload_messages
            self.amt["payload_bytes"] += executor.payload_bytes
        self.ops += 1

    # -- the table -----------------------------------------------------------
    def metrics(self, run, samples) -> Dict[str, float]:  # noqa: ANN001
        sim, ops = self.sim, self.ops
        spans = self.tracer.totals()
        process = sim.backend == "process"

        def span_ms(name: str, field: str = "total_s") -> float:
            return spans.get(name, {}).get(field, 0.0) * 1e3 / ops

        def reg_ms(name: str) -> float:
            return self.time_s[name] * 1e3 / ops

        regrids = int(spans.get("octree.regrid", {}).get("count", 0))
        exchange_ms = self.amt["exchange_wait_s"] * 1e3 / ops
        compute_ms = self.amt["compute_s"] * 1e3 / ops

        # Every row is a span's self time, except that the program's own
        # phase timers split the hydro and gravity self times further; what
        # they leave unexplained stays visible as the two `other` rows.
        if process:
            hydro_rows = [
                ("amt.exchange_wait_ms", exchange_ms), ("amt.compute_ms", compute_ms),
            ]
        else:
            hydro_rows = [(f"hydro.{p}_ms", reg_ms(f"hydro.{p}")) for p in HYDRO_PHASES]
        gravity_rows = [(f"gravity.{p}_ms", reg_ms(f"fmm.{p}")) for p in FMM_PHASES]
        hydro_other = span_ms("hydro.step", "self_s") - sum(ms for _, ms in hydro_rows)
        gravity_other = span_ms("gravity.solve", "self_s") - sum(
            ms for _, ms in gravity_rows
        )
        rows: List[Tuple[str, float]] = [
            ("core.step_self_ms", span_ms("core.step", "self_s")),
            ("distsim.virtual_timing_ms", span_ms("distsim.run_step")),
            ("octree.regrid_self_ms", span_ms("octree.regrid", "self_s")),
            ("octree.sfc_partition_ms", span_ms("octree.sfc_partition")),
            ("hydro.timestep_ms", span_ms("hydro.timestep")),
            ("plan.hydro_ms", span_ms("plan.hydro")),
            ("plan.fmm_ms", span_ms("plan.fmm")),
            ("plan.bundle_ms", span_ms("plan.bundle")),
            *hydro_rows,
            ("hydro.other_ms", hydro_other),
            *gravity_rows,
            ("gravity.other_ms", gravity_other),
        ]
        # Closure: the rows against the operation's wall time as the timed
        # loop measured it, independently of the spans.
        op_ms = sum(sum(p) for p in samples[True]) / ops
        attributed = sum(ms for _name, ms in rows)
        rows.append(("core.unattributed_ms", op_ms - attributed))
        self.table = [(name, ms, 100.0 * ms / op_ms) for name, ms in rows]

        hydro_ms = span_ms("hydro.step") - span_ms("gravity.solve")
        cells = run.case.mesh.n_cells()
        solves = int(spans.get("gravity.solve", {}).get("count", 0))
        stats = sim.gravity_solver.last_stats if sim.gravity_solver else None
        pairs = (stats.m2l_pairs + stats.near_pairs) if stats else 0
        launches = sum(self.count[f"hydro.{p}"] for p in HYDRO_PHASES)
        scratch = 0 if process else sim.integrator.plan_for().scratch.nbytes()
        worker_max = sum(self.time_s[f"hydro.{p}"] for p in HYDRO_PHASES)
        worker_mean = sum(
            self.time_s[f"hydro.{p}.workers_mean"] for p in HYDRO_PHASES
        )
        pooled = [u + t for u, t in zip(samples[False], samples[True])]
        user, sys_, faults = zip(*self.rusage)

        out: Dict[str, float] = {
            "core.step_ms_p50": phase_mean(pooled, 0.5),
            "core.step_ms_p90": phase_mean(pooled, 0.9),
            "core.step_samples": sum(len(p) for p in pooled),
            "core.step_self_ms": span_ms("core.step", "self_s"),
            "core.unattributed_pct": 100.0 * (op_ms - attributed) / op_ms,
            "core.wall_step_cover_pct": 100.0 * reg_ms("wall.step") / span_ms("core.step"),
            "hydro.step_ms": hydro_ms,
            "hydro.timestep_ms": span_ms("hydro.timestep"),
            "hydro.kernel_launches_per_step": 0 if process else launches / ops,
            "hydro.cells_per_s": cells * 1e3 / hydro_ms,
            "hydro.plan_scratch_mb": scratch / 2**20,
            "hydro.scratch_bytes_per_cell": scratch / cells,
            "gravity.solve_ms": span_ms("gravity.solve"),
            "gravity.solves_per_step": solves / ops,
            "gravity.m2l_far_pairs": stats.m2l_pairs if stats else 0,
            "gravity.m2l_near_pairs": stats.near_pairs if stats else 0,
            "gravity.p2p_pairs": stats.p2p_pairs if stats else 0,
            "gravity.m2l_ns_per_pair": (
                self.time_s["fmm.m2l"] * 1e9 / (solves * pairs) if pairs else 0.0
            ),
            "plan.hydro.delta_ms": _per(self.time_s["plan.hydro.delta"] * 1e3, regrids),
            "plan.fmm.delta_ms": _per(self.time_s["plan.fmm.delta"] * 1e3, regrids),
            "plan.hydro.delta_builds": _per(self.count["plan.hydro.delta_builds"], regrids),
            "plan.fmm.delta_builds": _per(self.count["plan.fmm.delta_builds"], regrids),
            "plan.upkeep_ms_per_regrid": _per(
                (span_ms("plan.hydro") + span_ms("plan.fmm") + span_ms("plan.bundle"))
                * ops, regrids,
            ),
            "octree.regrid_ms": _per(span_ms("octree.regrid") * ops, regrids),
            "amt.exchange_wait_ms": exchange_ms,
            "amt.compute_ms": compute_ms,
            "amt.exchange_wait_share": _per(exchange_ms, exchange_ms + compute_ms),
            "amt.worker_imbalance_pct": (
                100.0 * (worker_max / worker_mean - 1.0) if worker_mean else 0.0
            ),
            "comms.payload_messages_per_step": self.amt["payload_messages"] / ops,
            "comms.payload_bytes_per_step": self.amt["payload_bytes"] / ops,
            "distsim.virtual_timing_ms": span_ms("distsim.run_step"),
            "distsim.virtual_step_ms": sim.records[-1].virtual_seconds * 1e3,
            "mem.minflt_per_step": sum(faults) / ops,
            "mem.user_ms_per_step_p50": quantile(user, 0.5),
            "mem.sys_ms_per_step_p50": quantile(sys_, 0.5),
            "trace.overhead_pct": _paired_overhead_pct(samples),
            "trace.wrapper_cost_pct": 100.0 * self.tracer.wrapper_s * 1e3 / (ops * op_ms),
            "hydro.other_ms": hydro_other,
            "gravity.other_ms": gravity_other,
        }
        out.update({f"hydro.{p}_ms": reg_ms(f"hydro.{p}") for p in HYDRO_PHASES})
        out.update({f"gravity.{p}_ms": reg_ms(f"fmm.{p}") for p in FMM_PHASES})
        return out


def _paired_overhead_pct(samples) -> float:  # noqa: ANN001
    """Median difference between each traced operation and the untraced one
    just before it, as a share of the untraced median: pairing cancels the
    host's slow drift, which is far larger than the tracing cost."""
    diffs = [
        t - u
        for untraced, traced in zip(samples[False], samples[True])
        for u, t in zip(untraced, traced)
    ]
    untraced_all = [ms for phase in samples[False] for ms in phase]
    return 100.0 * quantile(diffs, 0.5) / quantile(untraced_all, 0.5)


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def side_measurements(run, tmp: Path, tracer: Tracer) -> Dict[str, float]:  # noqa: ANN001
    """Measurements outside the timed window, on the still-open sim."""
    sim, mesh, counters = run.sim, run.case.mesh, run.sim.counters
    spans = tracer.totals()
    regrids = run.stepper.regrids[WARMUP_OPS:]
    out: Dict[str, float] = {
        "scenarios.build_s": run.scenario_s,
        "amt.pool_start_ms": spans.get("amt.pool_start", {}).get("total_s", 0.0) * 1e3,
        "plan.hydro.cold_ms": counters.total("plan.hydro.cold") * 1e3,
        "plan.fmm.cold_ms": counters.total("plan.fmm.cold") * 1e3,
        "plan.bundle.cold_ms": counters.total("plan.bundle.cold") * 1e3,
        "octree.regrid_refined": _per(sum(r for r, _ in regrids), len(regrids)),
        "octree.regrid_coarsened": _per(sum(c for _, c in regrids), len(regrids)),
        "comms.bundle_bytes_per_step": 0,
        "gravity.solve_isolated_ms": 0.0,
        "plancache.hit_ms": 0.0,
    }
    if sim.backend == "process":
        # Three RK stages each move every remote bundle once.
        plan = sim.integrator.executor().bundle_plan
        out["comms.bundle_bytes_per_step"] = 3 * plan.remote_payload_bytes
    if sim.gravity_solver is not None:
        solves = []
        for _ in range(ISOLATED_SOLVES):
            t0 = time.perf_counter()
            sim.gravity_solver.solve(mesh)
            solves.append((time.perf_counter() - t0) * 1e3)
        out["gravity.solve_isolated_ms"] = quantile(solves, 0.1)

    t0 = time.perf_counter()
    path = sim.save_checkpoint(tmp / "state")
    t1 = time.perf_counter()
    load_checkpoint(path)
    out["ioutil.checkpoint_write_ms"] = (t1 - t0) * 1e3
    out["ioutil.checkpoint_read_ms"] = (time.perf_counter() - t1) * 1e3
    out["ioutil.checkpoint_mb"] = path.stat().st_size / 2**20

    if sim.backend == "des":
        # A second sim on the same topology, started on a plan cache the
        # first one warmed: what a restart saves on the cold plan builds.
        hits = []
        for _ in range(1 + PLANCACHE_HITS):
            mesh2, _meta = load_checkpoint(path)
            counters = _plan_only_sim(run, mesh2, tmp / "plans").counters
            hits.append(1e3 * (
                counters.total("plan.hydro.cache_hit")
                + counters.total("plan.fmm.cache_hit")
            ))
        out["plancache.hit_ms"] = quantile(hits[1:], 0.1)
    return out


def _plan_only_sim(run, mesh, cache_dir: Path):  # noqa: ANN001, ANN202
    """Build a sim on ``mesh`` and have it produce its plans (no stepping)."""
    sim = make_sim(run.case, mesh=mesh, plan_cache=cache_dir)
    sim.integrator.plan_for()
    if sim.gravity_solver is not None:
        sim.gravity_solver.plan_for(mesh)
    return sim


def _steps_p10(sim, count: int) -> float:  # noqa: ANN001
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        sim.step()
        samples.append((time.perf_counter() - t0) * 1e3)
    return quantile(samples, 0.1)


def after_close(run, pooled: List[List[float]]) -> Dict[str, Any]:  # noqa: ANN001
    """Process workload only, after its pool is gone: the same problem
    serially (continuing the reference sim of the output check) and under
    the overlap schedule, each for ``SIDE_STEPS`` steps."""
    out = {
        "amt.speedup_vs_serial": 0.0,
        "amt.parallel_efficiency": 0.0,
        "hydro.overlap_over_bsp": 0.0,
    }
    if run.workload.backend != "process":
        return out
    bsp_ms = step_ms_of(pooled)
    serial_ms = _steps_p10(run.reference, SIDE_STEPS)
    out["amt.speedup_vs_serial"] = serial_ms / bsp_ms
    out["amt.parallel_efficiency"] = serial_ms / (NPROCS * bsp_ms)
    overlap = make_sim(run.fresh_case(), overlap=True)
    try:
        for _ in range(WARMUP_OPS):
            overlap.step()
        out["hydro.overlap_over_bsp"] = _steps_p10(overlap, SIDE_STEPS) / bsp_ms
    finally:
        overlap.close()
    return out
