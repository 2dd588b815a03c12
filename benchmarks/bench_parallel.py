"""Process-backend strong scaling: 1/2/4 workers vs the serial batched step.

Standalone (not a paper figure):

    PYTHONPATH=src python benchmarks/bench_parallel.py [--smoke]

Measures the true-parallel multiprocessing backend
(``HydroIntegrator(backend="process")``, see ``docs/parallel.md``) on the
level-1 and level-2 meshes: warm RK3 step wall-clock at 1, 2 and 4 worker
processes against the single-process batched baseline — once with the BSP
barrier schedule and once with the fused ("overlap") schedule, one round
per RK stage — next to the distsim-predicted strong-scaling curves (overlap
on and off) for the same workload shape from ``repro.machines``.

Every point also records the executor's split of the step's round wall
time, one rule on both schedules (``docs/parallel.md``): ``compute_ms``
is, per round, the slowest rank's time in rank ops (begin, rhs, reflux,
update, finish), and ``exchange_wait_ms`` is the rest of the round —
ghost applies, the ``ghosts``→``go`` wait, control messages and
imbalance — with ``exchange_wait_share`` their ratio.

Before timing anything, every benchmarked (nprocs, schedule) case is run
through the DES-vs-process cross-check harness
(``repro.core.crosscheck``), which asserts ``np.array_equal`` on all
fields after every step — the backends must agree to the bit or the
benchmark exits non-zero.  Persists:

* ``benchmarks/output/parallel.txt`` — the human-readable table,
* ``BENCH_parallel.json`` at the repo root — machine-readable numbers.

Gates: the bit-identity cross-check always; on hosts with >= 4 usable
cores the >= 1.6x wall-clock gate at 4 workers on the warm level-2 step
and the one thing the fused schedule claims — a warm step no slower than
BSP at the same point.  On smaller containers the measured curve is
recorded honestly (``oversubscribed`` points carry no headline vs-serial
speedup) and the gates are reported as *unmeasured* (``gate_ok: null``),
never as a pass.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.crosscheck import crosscheck_hydro  # noqa: E402
from repro.distsim import RunConfig, simulate_step  # noqa: E402
from repro.hydro import HydroIntegrator, IdealGasEOS  # noqa: E402
from repro.machines import MACHINES  # noqa: E402
from repro.octree import AmrMesh, Field  # noqa: E402
from repro.scenarios.spec import ScenarioSpec  # noqa: E402

OUTPUT_DIR = Path(__file__).parent / "output"
SPEEDUP_GATE = 1.6
GATE_NPROCS = 4
#: Level-2 warm step at GATE_NPROCS, >= 4 cores: BSP time over fused time.
#: The fused schedule drops two barriers per stage and hides nothing else,
#: so all it claims is not to lose to the baseline.
FUSED_OVER_BSP_GATE = 1.0


def build_mesh(levels: int, n: int = 8, seed: int = 0):
    """A smooth, rotating-star-like state on a uniformly refined mesh."""
    rng = np.random.default_rng(seed)
    mesh = AmrMesh(n=n, ghost=2, domain_size=1.0)
    for _ in range(levels):
        for key in list(mesh.leaf_keys()):
            mesh.refine(key)
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


def predicted_curve(levels: int, n_leaves: int, nprocs_list, overlap: bool) -> dict:
    """distsim strong-scaling prediction for a same-shaped workload.

    Maps each worker-process count to one Fugaku node of the machine
    model and normalizes cells/s to the single-node point — the shape of
    the predicted curve (surface-to-volume ghost traffic vs per-leaf
    compute) is what the measured curve is compared against.  ``overlap``
    selects whether the model hides wire time behind compute or exposes
    it all (the BSP ablation).
    """
    machine = MACHINES["Fugaku"]
    spec = ScenarioSpec(
        name=f"bench-level-{levels}", n_subgrids=n_leaves, max_level=levels
    )
    base = None
    out = {}
    for nprocs in nprocs_list:
        r = simulate_step(
            spec, RunConfig(machine=machine, nodes=nprocs, overlap=overlap)
        )
        if base is None:
            base = r.cells_per_second
        out[nprocs] = r.cells_per_second / base
    return out


def predicted_overlap_point(levels: int, n_leaves: int, nprocs: int) -> dict:
    """distsim's view of what overlap buys at ``nprocs`` nodes: the
    overlap-vs-BSP step speedup and the exposed-wire share both ways.
    Recorded beside the unmeasured gates on undersized hosts (the model's
    multi-node wire term, not a stand-in for the measurement)."""
    machine = MACHINES["Fugaku"]
    spec = ScenarioSpec(
        name=f"bench-level-{levels}", n_subgrids=n_leaves, max_level=levels
    )
    on = simulate_step(
        spec, RunConfig(machine=machine, nodes=nprocs, overlap=True)
    )
    off = simulate_step(
        spec, RunConfig(machine=machine, nodes=nprocs, overlap=False)
    )
    share_on = on.exposed_comm_s / on.total_s
    share_off = off.exposed_comm_s / off.total_s
    return {
        "nprocs": nprocs,
        "speedup_overlap_vs_bsp": off.total_s / on.total_s,
        "wait_share_bsp": share_off,
        "wait_share_overlap": share_on,
        "wait_share_reduction": (
            1.0 - share_on / share_off if share_off > 0 else 0.0
        ),
    }


def attribution(integ: HydroIntegrator, dt: float, steps: int = 3) -> dict:
    """Average per-step exchange-wait / compute attribution (ms)."""
    ex = integ.executor()
    wait_s = compute_s = 0.0
    for _ in range(steps):
        integ.step(dt)
        wait_s += ex.exchange_wait_s
        compute_s += ex.compute_s
    wait_ms = wait_s / steps * 1e3
    compute_ms = compute_s / steps * 1e3
    denom = wait_ms + compute_ms
    return {
        "exchange_wait_ms": wait_ms,
        "compute_ms": compute_ms,
        "exchange_wait_share": wait_ms / denom if denom > 0 else 0.0,
    }


def bench_case(levels: int, nprocs_list, reps: int, trials: int,
               check_steps: int) -> dict:
    mesh, eos = build_mesh(levels)
    n_leaves = len(mesh.leaves())
    dt = 1e-4
    cores = len(os.sched_getaffinity(0))

    # Equivalence first: every benchmarked (nprocs, schedule) combination
    # goes through the DES-vs-process cross-check (np.array_equal per
    # field per step).
    checks = {}
    for nprocs in nprocs_list:
        for overlap in (False, True):
            check_mesh, check_eos = build_mesh(levels)
            result = crosscheck_hydro(
                check_mesh, steps=check_steps, nprocs=nprocs, eos=check_eos,
                overlap=overlap,
            )
            checks[(nprocs, overlap)] = result.ok

    serial = HydroIntegrator(mesh, eos)
    serial.step(dt)  # warm the plan caches
    serial_s = best_of(lambda: serial.step(dt), reps, trials)

    points = []
    warm_by_key = {}
    for nprocs in nprocs_list:
        for overlap in (False, True):
            pmesh, peos = build_mesh(levels)
            integ = HydroIntegrator(
                pmesh, peos, backend="process", nprocs=nprocs,
                overlap=overlap,
            )
            try:
                gc.collect()
                t0 = time.perf_counter()
                integ.step(dt)  # cold: fork + arena build + first step
                cold_s = time.perf_counter() - t0
                warm_s = best_of(lambda: integ.step(dt), reps, trials)
                attrib = attribution(integ, dt)
            finally:
                integ.close()
            warm_by_key[(nprocs, overlap)] = warm_s
            oversubscribed = nprocs > cores
            points.append({
                "nprocs": nprocs,
                "overlap": overlap,
                "cold_ms": cold_s * 1e3,
                "warm_ms": warm_s * 1e3,
                # More workers than schedulable cores: sub-1.0 speedups
                # here are a property of the container, not a regression —
                # the headline vs-serial speedup is withheld (annotated
                # raw value instead) so drift tooling cannot alert on it.
                "oversubscribed": oversubscribed,
                "speedup_vs_serial": (
                    None if oversubscribed else serial_s / warm_s
                ),
                "speedup_vs_serial_raw": serial_s / warm_s,
                "speedup_vs_1proc": None,  # filled below
                "crosscheck_ok": checks[(nprocs, overlap)],
                **attrib,
            })
    for p in points:
        base = warm_by_key[(nprocs_list[0], p["overlap"])]
        p["speedup_vs_1proc"] = base / (p["warm_ms"] / 1e3)

    return {
        "levels": levels,
        "leaves": n_leaves,
        "cells": int(mesh.n_cells()),
        "cores_online": cores,
        "serial_warm_ms": serial_s * 1e3,
        "points": points,
        "predicted_speedup": {
            str(k): v
            for k, v in predicted_curve(
                levels, n_leaves, nprocs_list, overlap=True
            ).items()
        },
        "predicted_speedup_no_overlap": {
            str(k): v
            for k, v in predicted_curve(
                levels, n_leaves, nprocs_list, overlap=False
            ).items()
        },
        "predicted_overlap": predicted_overlap_point(
            levels, n_leaves, GATE_NPROCS
        ),
    }


def _point(case: dict, nprocs: int, overlap: bool) -> dict:
    return next(
        p for p in case["points"]
        if p["nprocs"] == nprocs and p["overlap"] == overlap
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="level-1 only, 1/2 procs, one trial: the CI equivalence gate",
    )
    args = parser.parse_args(argv)

    cores = len(os.sched_getaffinity(0))
    if args.smoke:
        cases = [bench_case(1, [1, 2], reps=1, trials=1, check_steps=1)]
    else:
        cases = [
            bench_case(1, [1, 2, 4], reps=3, trials=4, check_steps=2),
            bench_case(2, [1, 2, 4], reps=1, trials=3, check_steps=2),
        ]

    lines = [
        "process backend strong scaling: warm RK3 step, min-of-trials "
        f"(host exposes {cores} usable core(s))",
        f"{'mesh':<10} {'nprocs':>6} {'sched':>8} {'cold':>9} {'warm':>9} "
        f"{'wait':>8} {'compute':>8} {'vs-serial':>10} {'vs-1proc':>9} "
        f"{'predicted':>10} {'bits':>6}",
    ]
    for c in cases:
        for p in c["points"]:
            key = str(p["nprocs"])
            pred = (
                c["predicted_speedup"][key] if p["overlap"]
                else c["predicted_speedup_no_overlap"][key]
            )
            sched = "overlap" if p["overlap"] else "bsp"
            if p["speedup_vs_serial"] is None:
                vs_serial = f"{p['speedup_vs_serial_raw']:.2f}x*"
            else:
                vs_serial = f"{p['speedup_vs_serial']:.2f}x"
            mark = " (oversubscribed)" if p["oversubscribed"] else ""
            lines.append(
                f"level {c['levels']:<4} {p['nprocs']:>6} {sched:>8} "
                f"{p['cold_ms']:>8.1f} {p['warm_ms']:>9.1f} "
                f"{p['exchange_wait_ms']:>7.1f} {p['compute_ms']:>8.1f} "
                f"{vs_serial:>10} {p['speedup_vs_1proc']:>8.2f}x "
                f"{pred:>9.2f}x "
                f"{'ok' if p['crosscheck_ok'] else 'FAIL':>6}{mark}"
            )
    lines.append(
        "(*: oversubscribed points report the raw ratio annotated, "
        "not as a headline speedup)"
    )

    gate_applies = cores >= GATE_NPROCS and not args.smoke
    gate_ok = None  # unmeasured until a gate has actually run
    if gate_applies:
        level2 = next(c for c in cases if c["levels"] == 2)
        bsp = _point(level2, GATE_NPROCS, False)
        ovl = _point(level2, GATE_NPROCS, True)
        assert not bsp["oversubscribed"]  # implied by cores check
        measured = bsp["speedup_vs_1proc"]
        scaling_ok = measured >= SPEEDUP_GATE
        lines.append(
            f"gate: level-2 warm speedup at {GATE_NPROCS} procs = "
            f"{measured:.2f}x (require >= {SPEEDUP_GATE}x) "
            f"{'PASS' if scaling_ok else 'FAIL'}"
        )
        fused_over_bsp = bsp["warm_ms"] / ovl["warm_ms"]
        fused_ok = fused_over_bsp >= FUSED_OVER_BSP_GATE
        overlap_gates = {
            "measured": True,
            "speedup_overlap_vs_bsp": fused_over_bsp,
            "speedup_ok": fused_ok,
            "wait_share_bsp": bsp["exchange_wait_share"],
            "wait_share_overlap": ovl["exchange_wait_share"],
        }
        gate_ok = scaling_ok and fused_ok
        lines.append(
            f"gate: level-2 fused vs bsp at {GATE_NPROCS} procs = "
            f"{fused_over_bsp:.2f}x (require >= {FUSED_OVER_BSP_GATE}x) "
            f"{'PASS' if fused_ok else 'FAIL'}; exchange-wait share "
            f"{bsp['exchange_wait_share']:.1%} -> "
            f"{ovl['exchange_wait_share']:.1%}"
        )
    else:
        pred = cases[-1]["predicted_overlap"]
        overlap_gates = {"measured": False, "predicted": pred}
        lines.append(
            f"gate: unmeasured ({'smoke mode' if args.smoke else f'only {cores} usable core(s)'}); "
            "bit-identity cross-check still enforced; distsim-predicted "
            f"overlap at {pred['nprocs']} procs: "
            f"{pred['speedup_overlap_vs_bsp']:.2f}x step speedup, "
            f"exposed-wire share {pred['wait_share_bsp']:.1%} -> "
            f"{pred['wait_share_overlap']:.1%}"
        )

    text = "\n".join(lines)
    print(text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "parallel.txt").write_text(text + "\n")
    payload = {
        "benchmark": "parallel",
        "smoke": args.smoke,
        "cores_online": cores,
        "speedup_gate": SPEEDUP_GATE,
        "gate_nprocs": GATE_NPROCS,
        "fused_over_bsp_gate": FUSED_OVER_BSP_GATE,
        "gate_applies": gate_applies,
        "gate_ok": gate_ok,
        "overlap_gates": overlap_gates,
        "cases": cases,
    }
    (REPO_ROOT / "BENCH_parallel.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    if gate_ok is False:
        print(
            f"FAIL: performance gate(s) below threshold at {GATE_NPROCS} "
            "procs",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
