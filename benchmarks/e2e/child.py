"""One workload subprocess: set up, warm up, time operations, check outputs.

Started by ``run.py`` with ``src/`` on ``PYTHONPATH`` and the BLAS thread
pools pinned to one thread.  Prints one JSON object on its last stdout line.

Untraced mode times operations with nothing installed on the program and is
the only source of end-to-end numbers.  Traced mode alternates untraced and
traced blocks, derives the per-layer numbers from the spans and from deltas
of the program's own counter registry, and runs the side measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

T_IMPORT0 = time.perf_counter()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from hostprobe import HostProbe  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BY_NAME, NPROCS, SMOKE_MASS_TOL, WARMUP_OPS, Case, Stepper, build_scenario,
    make_sim, seed_case,
)

from repro.amt import shm  # noqa: E402
from repro.amt.parallel import ParallelEngine  # noqa: E402

IMPORT_S = time.perf_counter() - T_IMPORT0

COLD_BUILD_COUNTERS = (
    "plan.hydro.cold_builds", "plan.fmm.cold_builds", "plan.bundle.cold_builds",
)


def cold_builds(sim) -> int:  # noqa: ANN001 - OctoTigerSim
    return sum(sim.counters.count(name) for name in COLD_BUILD_COUNTERS)


def peak_rss_mb(sim) -> float:  # noqa: ANN001 - OctoTigerSim
    """This process's peak RSS plus, on the process backend, each live
    worker's (read from /proc before the pool is shut down)."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sim.backend == "process":
        for locality in sim.integrator.executor().engine.localities:
            status = Path(f"/proc/{locality.process.pid}/status").read_text()
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def mesh_counts(mesh) -> Dict[str, int]:  # noqa: ANN001 - AmrMesh
    leaves = mesh.n_subgrids()
    m = mesh.n + 2 * mesh.ghost
    return {
        "octree.leaves": leaves,
        "octree.cells": mesh.n_cells(),
        "octree.ghost_cells": leaves * (m**3 - mesh.n**3),
    }


class Run:
    """Set-up shared by both modes; everything up to the first timed op."""

    def __init__(self, args: argparse.Namespace, tracer: Optional[Tracer]) -> None:
        self.args = args
        self.workload = BY_NAME[args.workload]
        span = tracer.span if tracer is not None else (lambda _name: nullcontext())
        if tracer is not None:
            tracer.wrap(ParallelEngine, "start", "amt.pool_start")

        t0 = time.perf_counter()
        with span("scenarios.build"):
            scenario = build_scenario(self.workload, args.level)
        self.scenario_s = time.perf_counter() - t0
        self.case: Case = seed_case(self.workload, scenario, args.seed, args.level)
        self.mass0 = self.case.mesh.total_mass()
        with span("core.construct"):
            self.sim = make_sim(self.case)
        self.stepper = Stepper(self.sim, self.case)
        with span("core.warmup"):
            for _ in range(WARMUP_OPS):
                self.stepper.op()
        if tracer is not None:
            tracer.unwrap_all()
        # Set-up time excludes this process's system time: almost all of it
        # is first-touch page faults, and the same 61 000 faults cost between
        # 0.5 and 15 s on the build host depending on the hypervisor's mood
        # (README.md, "Why set-up time excludes system time").
        self.setup_wall_s = time.time() - args.spawned_at
        self.setup_sys_s = resource.getrusage(resource.RUSAGE_SELF).ru_stime
        self.setup_s = self.setup_wall_s - self.setup_sys_s
        self.probe = HostProbe()
        self.probe.burst()
        self.warm_sha = checks.state_sha256(self.case.mesh)
        self.warm_cold_builds = cold_builds(self.sim)
        self.failed = 0

    def timed_op(self) -> Optional[float]:
        """One operation; its wall ms, or None if it failed."""
        t0 = time.perf_counter()
        try:
            self.stepper.op()
        except Exception as exc:  # noqa: BLE001 - any failure is a failed op
            print(f"operation failed: {exc!r}", file=sys.stderr)
            self.failed += 1
            return None
        elapsed = (time.perf_counter() - t0) * 1e3
        if not checks.state_is_sane(self.case.mesh):
            self.failed += 1
            return None
        self.probe.after_op(elapsed)
        return elapsed

    # -- output checks ---------------------------------------------------------
    def fresh_case(self) -> Case:
        """The identical seeded inputs, built again."""
        scenario = build_scenario(self.workload, self.args.level)
        return seed_case(self.workload, scenario, self.args.seed, self.args.level)

    def output_checks(self) -> Dict[str, checks.Check]:
        """Run after the timed window; closes the sim."""
        sim, case, wl = self.sim, self.case, self.workload
        smoke = case.level < 2
        cold = cold_builds(sim) - self.warm_cold_builds
        out: Dict[str, checks.Check] = {
            "state_sane": checks.equals(checks.state_is_sane(case.mesh), True),
            "mass_drift": checks.mass_drift(
                case.mesh, self.mass0,
                SMOKE_MASS_TOL if smoke and wl.gravity else wl.mass_tol,
            ),
            # On the coarse smoke mesh a window hop changes most leaves and
            # the program itself prefers a cold build to a delta.
            "cold_builds_after_warmup": (
                checks.informational(cold) if smoke else checks.equals(cold, 0)
            ),
        }
        if wl.scenario == "blast":
            out["sedov_radius"] = checks.sedov_radius(case.scenario, sim.integrator.time)
        if wl.gravity:
            out["fmm_err_median"], out["fmm_err_max"] = checks.fmm_accuracy(
                sim.gravity_solver, case.mesh, self.args.seed
            )
        if wl.regrid:
            timed = self.stepper.regrids[WARMUP_OPS:]
            out["regrid_churn"] = checks.equals(
                all(r > 0 and c > 0 for r, c in timed), True
            )
        sim.close()
        out["shm_segments_leaked"] = checks.equals(len(shm.live_segments()), 0)
        if wl.backend == "process":
            # The exact-tier contract: the serial backend reaches the same
            # bits after the same number of steps.
            ref_case = self.fresh_case()
            self.reference = make_sim(ref_case, backend="des")
            for _ in range(WARMUP_OPS):
                self.reference.step()
            out["process_equals_serial"] = checks.equals(
                checks.state_sha256(ref_case.mesh), self.warm_sha
            )
        return out


def result_base(run: Run, samples: List[List[float]],
                extra_checks: Optional[Dict[str, checks.Check]] = None) -> Dict[str, Any]:
    """Fields both modes report; runs the output checks (closing the sim)."""
    rss = peak_rss_mb(run.sim)
    counts = mesh_counts(run.case.mesh)
    steps = run.sim.integrator.steps_taken
    sha = checks.state_sha256(run.case.mesh)
    try:
        check_results = run.output_checks()
    finally:
        run.sim.close()  # idempotent; the checks close it on the way
    check_results.update(extra_checks or {})
    attempted = sum(len(s) for s in samples) + run.failed
    checks_ok = all(c["ok"] for c in check_results.values())
    return {
        "workload": run.workload.name,
        "seed": run.args.seed,
        "level": run.args.level,
        "samples_ms": samples,
        "setup_s": run.setup_s,
        "host_factor": run.probe.factor(),
        "host_probe": {"sets": run.probe.sets, "kernel_ms": run.probe.kernel_ms()},
        "setup_parts_s": {
            "wall": run.setup_wall_s, "sys": run.setup_sys_s,
            "import": IMPORT_S, "scenario": run.scenario_s,
        },
        "peak_rss_mb": rss,
        "attempted": attempted,
        # A run whose output is wrong has no operation that counts.
        "failed": run.failed if checks_ok else attempted,
        "correct": checks_ok and run.failed == 0,
        "checks": check_results,
        "counts": counts,
        "steps_taken": steps,
        "state_sha256": sha,
        "oversubscribed": (
            run.workload.backend == "process"
            and len(os.sched_getaffinity(0)) < NPROCS
        ),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas_name(),
        },
    }


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def run_untraced(args: argparse.Namespace) -> Dict[str, Any]:
    run = Run(args, tracer=None)
    samples: List[List[float]] = [[] for _ in range(run.stepper.phases)]
    min_ops = 2 * run.stepper.phases
    start = time.perf_counter()
    done = 0
    while not run.stepper.exhausted() and (
        done < min_ops or time.perf_counter() - start < args.seconds
    ):
        phase = run.stepper.phase
        elapsed = run.timed_op()
        if elapsed is None:
            break
        samples[phase].append(elapsed)
        done += 1
    window_s = time.perf_counter() - start
    result = result_base(run, samples)
    result["window_s"] = window_s
    return result


def run_traced(args: argparse.Namespace) -> Dict[str, Any]:
    tracer = Tracer()
    run = Run(args, tracer)
    probe = layers.LayerProbe(tracer, run.sim)
    phases = run.stepper.phases
    samples = {False: [[] for _ in range(phases)], True: [[] for _ in range(phases)]}
    start = time.perf_counter()
    traced = False
    while not samples[True][-1] or (
        time.perf_counter() - start < args.seconds and not run.stepper.exhausted()
    ):
        if traced:
            probe.install()
        for _ in range(phases):
            phase = run.stepper.phase
            tracer.step_id = run.stepper.ops
            before = probe.before_op() if traced else None
            elapsed = run.timed_op()
            if elapsed is None:
                raise RuntimeError("an operation failed in the traced run")
            if traced:
                probe.after_op(before)
            samples[traced][phase].append(elapsed)
        if traced:
            probe.uninstall()
        traced = not traced

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pooled = [u + t for u, t in zip(samples[False], samples[True])]
    metrics = probe.metrics(run, samples)
    unattributed = metrics["core.unattributed_pct"]
    closure = {
        "ok": abs(unattributed) <= layers.CLOSURE_LIMIT_PCT,
        "value": unattributed, "limit": layers.CLOSURE_LIMIT_PCT,
    }
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="tmp-") as tmp:
        metrics.update(layers.side_measurements(run, Path(tmp), tracer))
        result = result_base(run, pooled, {"closure": closure})
        metrics.update(layers.after_close(run, pooled))
    done = result["checks"]
    for check, metric in (("fmm_err_median", "p50"), ("fmm_err_max", "max")):
        metrics[f"gravity.accel_rel_err_{metric}"] = done.get(check, {}).get("value", 0.0)
    metrics["amt.shm_segments_leaked"] = done["shm_segments_leaked"]["value"]
    metrics["plan.cold_builds_after_warmup"] = done["cold_builds_after_warmup"]["value"]
    metrics.update(result["counts"])
    metrics["host.slowdown"] = result["host_factor"]
    result["layers"] = metrics
    result["layer_table"] = probe.table
    trace_path = out_dir / f"trace-{run.workload.name}.json"
    tracer.write_chrome_trace(trace_path, run.workload.name)
    result["trace_file"] = trace_path.name
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--level", type=int, choices=(1, 2), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    mode: Callable[[argparse.Namespace], Dict[str, Any]] = (
        run_traced if args.trace else run_untraced
    )
    result = mode(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
