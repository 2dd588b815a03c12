"""FMM plan benchmark: cold / warm solves, row blocks, P2P stencil templates, memory by owner.

Standalone (not a paper figure):

    PYTHONPATH=src python benchmarks/bench_fmm_plan.py [--smoke]

Measures the plan-cached batched FMM solve (``FmmSolver.solve``) against
the per-node reference traversal (``solve_reference`` of
``tests/oracles/fmm.py``), the row-blocked
M2L (``FmmPlan.near_blocks`` / ``FarLevel.blocks``, see
``docs/gravity_plan.md``) against one kernel call over each whole row
list, what the plan holds (``FmmPlan.nbytes()`` by owner, ``templates``
split into the shared gather matrices and the per-class offset tables)
beside the tracemalloc transient peak of one warm solve, and what the
P2P templates cost per solve (``P2PClass.templates``: time per class and
how many classes handed back a freshly built matrix instead of the
solve's shared scratch).  Persists:

* ``benchmarks/output/fmm_plan.txt`` — the human-readable tables,
* ``BENCH_fmm.json`` at the repo root — machine-readable numbers,

both with the host/commit manifest ``BENCH_hydro.json`` carries.

Gates (exit 1 on violation):

* batched vs reference within 1e-13 (relative to the field scale);
* blocked vs single-call **exactly zero** — no block cuts a segment and
  ``np.add.reduceat`` reduces each segment on its own, so not a bit moves;
* the M2L kernel vs its einsum formulation (``m2l_segmented_einsum`` of
  ``tests/oracles/fmm.py``) **exactly zero** on every block of every mesh,
  ``--smoke`` included: each kernel call of one warm solve is re-run
  through the oracle and compared as ``uint64``, so ``-0.0`` vs ``+0.0``
  counts as a difference;
* the block-size sweep on the level-2 mesh has an **interior optimum**:
  some block size strictly between "one block" and "one segment per
  block" beats both on ``fmm.m2l`` (the measured companion of the paper's
  Fig. 9; not evaluated under ``--smoke``, whose lists are too short);
* P2P templates: ``templates`` <= 24 MiB on every mesh (the 139-class
  78-leaf level-2 mesh is the one that filled the former 192 MiB store),
  0 classes rebuilt per solve, and <= 0.6 ms of template time per class
  after host normalisation (not evaluated under ``--smoke``: one untimed
  trial).  The raw reading is divided by the host factor of the frozen
  probe kernels of ``benchmarks/e2e/hostprobe.py``, run between the timed
  solves, so the gate reads the quiet build host's scale whatever the
  host's speed at the time; raw ms, factor and normalised ms are all
  persisted.

Timing methodology matches ``bench_hydro_plan.py``: minimum over several
trials of the mean of a few repetitions, ``gc.collect()`` before each
trial.  The sweep rebuilds the plan at each block size by setting
``repro.gravity.plan.M2L_BLOCK_ROWS`` for the build — a bench-only probe;
the constant is not an option.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

import repro.gravity.fmm as fmm_mod  # noqa: E402
import repro.gravity.plan as plan_mod  # noqa: E402
from benchmarks.bench_hydro_plan import best_of, host_manifest  # noqa: E402
from benchmarks.e2e.hostprobe import HostProbe  # noqa: E402
from repro.gravity.fmm import FmmSolver  # noqa: E402
from repro.octree import AmrMesh, Field  # noqa: E402
from repro.profiling.apex import CounterRegistry  # noqa: E402
from tests.oracles.fmm import m2l_segmented_einsum, solve_reference  # noqa: E402

OUTPUT_DIR = Path(__file__).parent / "output"
DRIFT_TOL = 1e-13
#: Larger than any row list: one kernel call per list (the unblocked form).
ONE_BLOCK = 10**9
#: Rows per block of the sweep; 1 = every segment is its own block.
SWEEP_ROWS = (ONE_BLOCK, 65536, 16384, 8192, 4096, 2048, 1024, 1)
MB = 2**20  # MiB, the unit of the ledger's peak_rss_mb
TEMPLATE_MB_MAX = 24.0
TEMPLATE_MS_PER_CLASS_MAX = 0.6
#: ``build_mesh`` picks (into the sorted leaf keys) that refine (2, 56) and
#: (2, 28): the 78-leaf ``dwd_l2_regrid`` topology with 139 P2P classes.
DWD_WINDOW = (56, 28)


def build_mesh(levels: int, n: int = 8, refine_keys=(), seed: int = 0):
    """A gaussian blob on a (possibly adaptively refined) mesh."""
    rng = np.random.default_rng(seed)
    mesh = AmrMesh(n=n, ghost=2, domain_size=2.0)
    for _ in range(levels):
        for key in list(mesh.leaf_keys()):
            mesh.refine(key)
    for k in refine_keys:
        keys = sorted(mesh.leaf_keys())
        mesh.refine(keys[k % len(keys)])
    for leaf in mesh.leaves():
        x, y, z = leaf.cell_centers()
        rho = np.exp(-(x**2 + y**2 + z**2) / 0.25) + 0.01 * rng.random(x.shape)
        leaf.subgrid.set_interior(Field.RHO, rho)
    mesh.restrict_all()
    return mesh


@contextlib.contextmanager
def block_rows(rows: int):
    """Plans built inside are cut at ``rows`` rows per block."""
    saved = plan_mod.M2L_BLOCK_ROWS
    plan_mod.M2L_BLOCK_ROWS = rows
    try:
        yield
    finally:
        plan_mod.M2L_BLOCK_ROWS = saved


def n_blocks(plan) -> int:
    return len(plan.near_blocks) + sum(len(fl.blocks) for fl in plan.far_levels)


def relative_drift(res, ref) -> float:
    """max |res - ref| over phi and accel, relative to the field scales."""
    phi_scale = max(np.abs(p).max() for p in ref.phi.values()) or 1.0
    acc_scale = max(np.abs(a).max() for a in ref.accel.values()) or 1.0
    worst = 0.0
    for key in ref.phi:
        worst = max(worst, np.abs(res.phi[key] - ref.phi[key]).max() / phi_scale)
        worst = max(worst, np.abs(res.accel[key] - ref.accel[key]).max() / acc_scale)
    return float(worst)


def exact_drift(res, ref) -> float:
    """0.0 when the two results agree bit-for-bit, else the max |diff|."""
    worst = 0.0
    for key in ref.phi:
        if not (
            np.array_equal(res.phi[key], ref.phi[key])
            and np.array_equal(res.accel[key], ref.accel[key])
        ):
            worst = max(
                worst,
                float(np.abs(res.phi[key] - ref.phi[key]).max()),
                float(np.abs(res.accel[key] - ref.accel[key]).max()),
            )
    return worst


def kernel_vs_einsum(solver: FmmSolver, mesh):
    """``(blocks, blocks differing)``: every ``m2l_segmented`` call of one
    warm solve against ``m2l_segmented_einsum`` on the same arguments,
    compared bit for bit (``uint64`` views)."""
    inner = fmm_mod.m2l_segmented
    calls = []

    def recorded(*args, **kwargs):
        out = inner(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    fmm_mod.m2l_segmented = recorded
    try:
        solver.solve(mesh)
    finally:
        fmm_mod.m2l_segmented = inner
    differing = 0
    for args, kwargs, out in calls:
        want = m2l_segmented_einsum(*args, **kwargs)
        differing += not all(
            np.array_equal(np.ascontiguousarray(g).view(np.uint64), w.view(np.uint64))
            for g, w in zip(out, want)
        )
    return len(calls), differing


def transient_peak_mb(solver: FmmSolver, mesh) -> float:
    """tracemalloc peak of one warm solve above what was held before it."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solver.solve(mesh)
        return (tracemalloc.get_traced_memory()[1] - base) / MB
    finally:
        tracemalloc.stop()


def template_cost(solver: FmmSolver, mesh, trials: int):
    """``(ms per class, host factor, classes rebuilt)`` inside warm solves:
    each class's time in ``P2PClass.templates`` (min over ``trials``
    solves, then the mean over classes), the host probe's slowdown factor
    sampled around those solves, and the calls that did not hand back the
    two scratch matrices they were given."""
    inner = plan_mod.P2PClass.templates
    probe = HostProbe()
    times, rebuilt = [], []  # per trial: [class, in plan order], count

    def timed(self, t1, t3):
        t0 = time.perf_counter()
        out = inner(self, t1, t3)
        times[-1].append(time.perf_counter() - t0)
        rebuilt[-1] += not (out[0] is t1 and out[1] is t3)
        return out

    plan_mod.P2PClass.templates = timed
    try:
        probe.burst()
        for _ in range(trials):
            times.append([])
            rebuilt.append(0)
            t0 = time.perf_counter()
            solver.solve(mesh)
            probe.after_op((time.perf_counter() - t0) * 1e3)
    finally:
        plan_mod.P2PClass.templates = inner
    return float(np.min(times, axis=0).mean()) * 1e3, probe.factor(), max(rebuilt)


def bench_level(levels: int, reps: int, trials: int, refine_keys=()):
    mesh = build_mesh(levels, refine_keys=refine_keys)
    solver = FmmSolver()

    gc.collect()
    t0 = time.perf_counter()
    cold_res = solver.solve(mesh)  # plan build + first batched solve
    cold_s = time.perf_counter() - t0

    warm = best_of(lambda: solver.solve(mesh), reps, trials)
    with block_rows(ONE_BLOCK):
        single_solver = FmmSolver()
        single_res = single_solver.solve(mesh)
    warm_single = best_of(lambda: single_solver.solve(mesh), reps, trials)
    t0 = time.perf_counter()
    ref_res = solve_reference(solver, mesh)
    reference_s = time.perf_counter() - t0

    plan = solver.plan_for(mesh)
    template_ms, host_factor, rebuilt = template_cost(solver, mesh, max(trials, 6))
    kernel_blocks, kernel_differing = kernel_vs_einsum(solver, mesh)
    return {
        "levels": levels,
        "leaves": len(mesh.leaves()),
        "cells": int(mesh.n_cells()),
        "cold_ms": cold_s * 1e3,
        "warm_ms": warm * 1e3,
        "warm_single_call_ms": warm_single * 1e3,
        "reference_ms": reference_s * 1e3,
        "speedup_vs_reference": reference_s / warm,
        "m2l_block_rows": plan_mod.M2L_BLOCK_ROWS,
        "m2l_rows": int(plan.near_rows.size + sum(fl.src_idx.size for fl in plan.far_levels)),
        "m2l_blocks": n_blocks(plan),
        "single_call_blocks": n_blocks(single_solver.plan_for(mesh)),
        "plan_bytes": plan.nbytes(),
        "p2p_classes": len(plan.p2p_classes),
        "gather_matrices": len(plan.gather_store),
        "gather_bytes": sum(k.nbytes for k in plan.gather_store.values()),
        "table_bytes": sum(c.tab.nbytes for c in plan.p2p_classes),
        "template_ms_per_class_raw": template_ms,
        "template_host_factor": host_factor,
        "template_ms_per_class": template_ms / host_factor,
        "classes_rebuilt_per_solve": rebuilt,
        "transient_peak_mb": transient_peak_mb(solver, mesh),
        "transient_peak_single_call_mb": transient_peak_mb(single_solver, mesh),
        "drift_vs_reference": relative_drift(cold_res, ref_res),
        "blocked_drift": exact_drift(cold_res, single_res),
        "kernel_blocks": kernel_blocks,
        "kernel_blocks_differing_from_einsum": kernel_differing,
    }


def block_sweep(levels: int, trials: int, sizes=SWEEP_ROWS, refine_keys=()):
    """``fmm.m2l`` per solve (min of ``trials``) at each block size."""
    mesh = build_mesh(levels, refine_keys=refine_keys)
    rows_out = []
    for rows in sizes:
        with block_rows(rows):
            solver = FmmSolver()
            solver.solve(mesh)
        best = float("inf")
        for _ in range(trials):
            solver.registry = CounterRegistry()
            gc.collect()
            solver.solve(mesh)
            best = min(best, solver.registry.total("fmm.m2l"))
        rows_out.append({
            "rows_per_block": rows,
            "blocks": n_blocks(solver.plan_for(mesh)),
            "m2l_ms": best * 1e3,
        })
    return rows_out


def sweep_label(rows: int) -> str:
    return {ONE_BLOCK: "all", 1: "1 segment"}.get(rows, str(rows))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, one trial: drift gates + plumbing check for CI",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        cases = [bench_level(1, reps=1, trials=1, refine_keys=(0,))]
        sweep = block_sweep(1, trials=1, sizes=(ONE_BLOCK, 1024, 1), refine_keys=(0,))
    else:
        cases = [
            bench_level(1, reps=5, trials=8),
            bench_level(2, reps=2, trials=4),
            bench_level(1, reps=3, trials=6, refine_keys=(0, 3)),
            bench_level(2, reps=2, trials=4, refine_keys=DWD_WINDOW),
        ]
        sweep = block_sweep(2, trials=8)

    lines = [
        "fmm plan: batched solve vs reference traversal "
        "(min-of-trials, ms per solve)",
        f"{'mesh':<10} {'leaves':>6} {'cold':>8} {'warm':>8} {'1-call':>8} "
        f"{'ref':>9} {'speedup':>8} {'blocks':>8}",
    ]
    for c in cases:
        lines.append(
            f"level {c['levels']:<4} {c['leaves']:>6} {c['cold_ms']:>8.1f} "
            f"{c['warm_ms']:>8.1f} {c['warm_single_call_ms']:>8.1f} "
            f"{c['reference_ms']:>9.1f} {c['speedup_vs_reference']:>7.2f}x "
            f"{c['single_call_blocks']:>3}->{c['m2l_blocks']:<4}"
        )
    for c in cases:
        lines.append(
            f"drift level {c['levels']} (leaves {c['leaves']}): "
            f"vs reference {c['drift_vs_reference']:.3e}, "
            f"blocked vs single-call {c['blocked_drift']:.3e}, "
            f"kernel vs einsum oracle {c['kernel_blocks_differing_from_einsum']} "
            f"of {c['kernel_blocks']} blocks differ"
        )
    lines.append(
        "memory by owner (MiB held by the plan | tracemalloc transient peak "
        "of one warm solve)"
    )
    lines.append(
        f"{'mesh':<10} {'leaves':>6} {'lists':>8} {'positions':>10} "
        f"{'gathers':>8} {'tables':>7} | {'blocked':>8} {'1-call':>8}"
    )
    for c in cases:
        owners = c["plan_bytes"]
        lines.append(
            f"level {c['levels']:<4} {c['leaves']:>6} {owners['lists'] / MB:>8.2f} "
            f"{owners['positions'] / MB:>10.2f} {c['gather_bytes'] / MB:>8.2f} "
            f"{c['table_bytes'] / MB:>7.2f} | "
            f"{c['transient_peak_mb']:>8.1f} {c['transient_peak_single_call_mb']:>8.1f}"
        )
    lines.append(
        "P2P templates per warm solve: classes, gather matrices, "
        "template ms per class (raw / host factor = normalised), "
        "classes rebuilt per solve"
    )
    for c in cases:
        lines.append(
            f"level {c['levels']:<4} {c['leaves']:>6} {c['p2p_classes']:>8} "
            f"{c['gather_matrices']:>10} "
            f"{c['template_ms_per_class_raw']:>8.2f} / {c['template_host_factor']:.2f} = "
            f"{c['template_ms_per_class']:.2f} {c['classes_rebuilt_per_solve']:>7}"
        )
    lines.append(
        f"block sweep (level {1 if args.smoke else 2}, fmm.m2l ms per solve, "
        f"min of {1 if args.smoke else 8}): rows per block (blocks) -> ms"
    )
    lines.append("  ".join(
        f"{sweep_label(s['rows_per_block'])} ({s['blocks']}) {s['m2l_ms']:.1f}"
        for s in sweep
    ))
    best = min(sweep[1:-1], key=lambda s: s["m2l_ms"])
    interior_optimum = best["m2l_ms"] < min(sweep[0]["m2l_ms"], sweep[-1]["m2l_ms"])
    if args.smoke:
        lines.append("interior optimum: unmeasured (--smoke lists are too short)")
    else:
        lines.append(
            f"interior optimum: {best['rows_per_block']} rows/block "
            f"{best['m2l_ms']:.1f} ms vs one block {sweep[0]['m2l_ms']:.1f} / "
            f"one segment per block {sweep[-1]['m2l_ms']:.1f} — "
            f"{'yes' if interior_optimum else 'NO'}"
        )

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
    (OUTPUT_DIR / "fmm_plan.txt").write_text(text + "\n")
    payload = {
        "benchmark": "fmm_plan",
        "smoke": args.smoke,
        "manifest": manifest,
        "drift_tol": DRIFT_TOL,
        "drift": {
            f"level {c['levels']} leaves {c['leaves']}": c["drift_vs_reference"]
            for c in cases
        },
        "cases": cases,
        "block_sweep": sweep,
        "interior_optimum": None if args.smoke else interior_optimum,
    }
    (REPO_ROOT / "BENCH_fmm.json").write_text(json.dumps(payload, indent=2) + "\n")

    status = 0
    for c in cases:
        label = f"level {c['levels']} (leaves {c['leaves']})"
        if not (c["drift_vs_reference"] <= DRIFT_TOL):
            print(
                f"FAIL: {label} drift {c['drift_vs_reference']:.3e} > {DRIFT_TOL}",
                file=sys.stderr,
            )
            status = 1
        if c["blocked_drift"] != 0.0:
            print(
                f"FAIL: {label} blocked drift {c['blocked_drift']:.3e} != 0 "
                "(row blocking must be bit-identical)",
                file=sys.stderr,
            )
            status = 1
        if c["kernel_blocks_differing_from_einsum"]:
            print(
                f"FAIL: {label} {c['kernel_blocks_differing_from_einsum']} of "
                f"{c['kernel_blocks']} M2L blocks differ from the einsum oracle "
                "(the kernel must keep its bits)",
                file=sys.stderr,
            )
            status = 1
        if c["plan_bytes"]["templates"] > TEMPLATE_MB_MAX * MB:
            print(
                f"FAIL: {label} templates {c['plan_bytes']['templates'] / MB:.1f} "
                f"MiB > {TEMPLATE_MB_MAX}",
                file=sys.stderr,
            )
            status = 1
        if c["classes_rebuilt_per_solve"]:
            print(
                f"FAIL: {label} {c['classes_rebuilt_per_solve']} class(es) built "
                "their templates outside the shared scratch",
                file=sys.stderr,
            )
            status = 1
        if not args.smoke and c["template_ms_per_class"] > TEMPLATE_MS_PER_CLASS_MAX:
            print(
                f"FAIL: {label} template time {c['template_ms_per_class']:.2f} ms "
                f"per class (host-normalised; raw {c['template_ms_per_class_raw']:.2f} "
                f"ms, host factor {c['template_host_factor']:.2f}) > "
                f"{TEMPLATE_MS_PER_CLASS_MAX}",
                file=sys.stderr,
            )
            status = 1
    if not args.smoke and not interior_optimum:
        print(
            "FAIL: no interior block size beats both one block and "
            "one-segment blocks on fmm.m2l",
            file=sys.stderr,
        )
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
