"""Batched hydro-plan benchmark: cold / warm / multi-step vs the reference.

Standalone (not a paper figure):

    PYTHONPATH=src python benchmarks/bench_hydro_plan.py [--smoke]

Measures the cached batched hydro step (``HydroIntegrator.step``, see
``docs/hydro_plan.md``) against the per-leaf oracle ``step_reference``
(``tests/oracles/hydro_step.py``) on multi-leaf meshes, verifies the two
agree (the batched step is designed to be bit-identical; the acceptance
gate is 1e-13), and persists:

* ``benchmarks/output/hydro_plan.txt`` — the human-readable table,
* ``BENCH_hydro.json`` at the repo root — machine-readable numbers.

Exits non-zero if the batched and reference states drift apart, or if the
level-2 plan holds more than ``SCRATCH_GATE`` scratch bytes per cell (the
leaf-blocked rhs keeps it at 680; the whole-run kernel held 1 953).

Timing methodology: minimum over several trials of the mean of a few
repetitions, with a ``gc.collect()`` before each trial — single-core
containers have noisy wall clocks and the minimum is the best estimator of
the achievable time.  Two step timings are reported per mesh: ``fixed-dt``
(the RK3 step alone) and ``full`` (including the CFL timestep computation,
which the batched path serves from the folded-in signal reduction).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from repro.hydro import HydroIntegrator, IdealGasEOS  # noqa: E402
from repro.octree import AmrMesh, Field  # noqa: E402

from tests.oracles.hydro_step import step_reference  # noqa: E402

OUTPUT_DIR = Path(__file__).parent / "output"
DRIFT_TOL = 1e-13
#: Scratch bytes per cell the level-2 plan may hold (docs/hydro_plan.md,
#: "Leaf blocking").
SCRATCH_GATE = 800.0


def host_manifest() -> dict:
    """Where and on what these numbers were measured."""
    git = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    dirty = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "status", "--porcelain", "--", "src"],
        capture_output=True, text=True, check=False,
    )
    return {
        "git_commit": git.stdout.strip() or "unknown",
        "src_dirty": bool(dirty.stdout.strip()),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def build_mesh(levels: int, n: int = 8, refine_keys=(), seed: int = 0):
    """A smooth, rotating-star-like state on a (possibly refined) mesh."""
    rng = np.random.default_rng(seed)
    mesh = AmrMesh(n=n, ghost=2, domain_size=1.0)
    for _ in range(levels):
        for key in list(mesh.leaf_keys()):
            mesh.refine(key)
    for k in refine_keys:
        keys = sorted(mesh.leaf_keys())
        mesh.refine(keys[k % len(keys)])
    eos = IdealGasEOS()
    for leaf in mesh.leaves():
        x, y, z = leaf.cell_centers()
        rho = (
            1.0
            + 0.3 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
            + 0.05 * rng.random(x.shape)
        )
        p = 1.0 + 0.2 * np.cos(2 * np.pi * z)
        eint = p / (eos.gamma - 1.0)
        vx = 0.1 * np.sin(2 * np.pi * y)
        leaf.subgrid.set_interior(Field.RHO, rho)
        leaf.subgrid.set_interior(Field.SX, rho * vx)
        leaf.subgrid.set_interior(Field.EGAS, eint + 0.5 * rho * vx**2)
        leaf.subgrid.set_interior(Field.TAU, eos.tau_from_eint(eint))
        leaf.subgrid.set_interior(Field.FRAC1, 0.4 * rho)
        leaf.subgrid.set_interior(Field.FRAC2, 0.6 * rho)
    mesh.restrict_all()
    return mesh, eos


def best_of(f, reps: int, trials: int) -> float:
    out = []
    for _ in range(trials):
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(reps):
            f()
        out.append((time.perf_counter() - t0) / reps)
    return min(out)


def check_drift(levels: int, steps: int, refine_keys=()) -> float:
    """Evolve batched and reference side by side; return the max |diff|."""
    mesh_a, eos = build_mesh(levels, refine_keys=refine_keys)
    mesh_b, _ = build_mesh(levels, refine_keys=refine_keys)
    a = HydroIntegrator(mesh_a, eos)
    b = HydroIntegrator(mesh_b, eos)
    for _ in range(steps):
        dt_a = a.step()
        dt_b = step_reference(b)
        if dt_a != dt_b:
            return float("inf")
    return max(
        float(np.max(np.abs(mesh_a.nodes[k].subgrid.data - mesh_b.nodes[k].subgrid.data)))
        for k in mesh_a.nodes
    )


def bench_level(levels: int, reps: int, trials: int, refine_keys=()):
    mesh_a, eos = build_mesh(levels, refine_keys=refine_keys)
    mesh_b, _ = build_mesh(levels, refine_keys=refine_keys)
    batched = HydroIntegrator(mesh_a, eos)
    reference = HydroIntegrator(mesh_b, eos)
    n_leaves = len(mesh_a.leaves())
    dt = 1e-4

    # Cold: plan build + ghost-index build + first batched step.
    gc.collect()
    t0 = time.perf_counter()
    batched.step(dt)
    cold_s = time.perf_counter() - t0
    step_reference(reference, dt)  # warm the reference path's caches too

    warm_batched = best_of(lambda: batched.step(dt), reps, trials)
    warm_reference = best_of(lambda: step_reference(reference, dt), reps, trials)
    # Full step: dt recomputed every step.  The batched path serves
    # global_timestep from the signal reduction folded into the previous
    # step; the reference re-walks every leaf's primitives.
    full_batched = best_of(lambda: batched.step(), reps, trials)
    full_reference = best_of(lambda: step_reference(reference), reps, trials)

    return {
        "levels": levels,
        "leaves": n_leaves,
        "cells": int(mesh_a.n_cells()),
        "cold_batched_ms": cold_s * 1e3,
        "warm_batched_ms": warm_batched * 1e3,
        "warm_reference_ms": warm_reference * 1e3,
        "warm_speedup": warm_reference / warm_batched,
        "full_batched_ms": full_batched * 1e3,
        "full_reference_ms": full_reference * 1e3,
        "full_speedup": full_reference / full_batched,
        "plan_nbytes": batched.plan_for().nbytes(),
        "face_trace_nbytes": batched.plans.traces.nbytes(),
        "scratch_bytes_per_cell": (
            batched.plan_for().scratch.nbytes() / mesh_a.n_cells()
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, one trial: drift gate + plumbing check for CI",
    )
    args = parser.parse_args(argv)

    drift_cases = [
        ("uniform level 1", 1, 3, ()),
        ("adaptive level 1+", 1, 3, (0, 3)),
    ]
    drifts = []
    for name, levels, steps, refine in drift_cases:
        d = check_drift(levels, steps, refine_keys=refine)
        drifts.append((name, d))

    if args.smoke:
        cases = [bench_level(1, reps=1, trials=1)]
    else:
        cases = [
            bench_level(1, reps=5, trials=8),
            bench_level(2, reps=2, trials=4),
        ]

    lines = [
        "hydro plan: batched stacked step vs per-leaf reference "
        "(min-of-trials, ms per RK3 step)",
        f"{'mesh':<10} {'leaves':>6} {'cold':>8} {'warm':>8} {'ref':>8} "
        f"{'speedup':>8} {'full':>8} {'full-ref':>9} {'speedup':>8} "
        f"{'scratch B/cell':>15}",
    ]
    for c in cases:
        lines.append(
            f"level {c['levels']:<4} {c['leaves']:>6} {c['cold_batched_ms']:>8.1f} "
            f"{c['warm_batched_ms']:>8.1f} {c['warm_reference_ms']:>8.1f} "
            f"{c['warm_speedup']:>7.2f}x {c['full_batched_ms']:>8.1f} "
            f"{c['full_reference_ms']:>9.1f} {c['full_speedup']:>7.2f}x "
            f"{c['scratch_bytes_per_cell']:>15.1f}"
        )
    for c in cases:
        owners = dict(c["plan_nbytes"], face_traces=c["face_trace_nbytes"])
        lines.append(
            f"level {c['levels']} plan B/cell by owner: " + ", ".join(
                f"{name} {nbytes / c['cells']:.1f}" for name, nbytes in owners.items()
            )
        )
    for name, d in drifts:
        lines.append(f"drift {name}: max|batched - reference| = {d:.3e}")

    manifest = host_manifest()
    lines.append(
        "host: {usable_cores} usable core(s), {machine}, python {python}, "
        "numpy {numpy}; commit {git_commit}{dirty}; {utc}".format(
            dirty=" + uncommitted src/" if manifest["src_dirty"] else "", **manifest
        )
    )
    text = "\n".join(lines)
    print(text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "hydro_plan.txt").write_text(text + "\n")
    payload = {
        "benchmark": "hydro_plan",
        "smoke": args.smoke,
        "manifest": manifest,
        "drift_tol": DRIFT_TOL,
        "scratch_gate_bytes_per_cell": SCRATCH_GATE,
        "drift": {name: d for name, d in drifts},
        "cases": cases,
    }
    (REPO_ROOT / "BENCH_hydro.json").write_text(json.dumps(payload, indent=2) + "\n")

    bad = [(name, d) for name, d in drifts if not (d <= DRIFT_TOL)]
    for name, d in bad:
        print(f"FAIL: {name} drift {d:.3e} > {DRIFT_TOL}", file=sys.stderr)
    fat = [
        c for c in cases
        if c["levels"] == 2 and c["scratch_bytes_per_cell"] > SCRATCH_GATE
    ]
    for c in fat:
        print(
            f"FAIL: level {c['levels']} plan holds "
            f"{c['scratch_bytes_per_cell']:.1f} scratch B/cell > {SCRATCH_GATE}",
            file=sys.stderr,
        )
    return 1 if bad or fat else 0


if __name__ == "__main__":
    raise SystemExit(main())
