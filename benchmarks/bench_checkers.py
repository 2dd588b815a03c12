"""Checker overhead: what do the process-backend correctness layers cost?

Standalone (not a paper figure):

    PYTHONPATH=src python benchmarks/bench_checkers.py [--smoke]

Times the warm process-backend RK3 step on the level-1 and level-2
benchmark meshes in three configurations:

* ``off``     — ``verify_plans=False, detect_races=False`` (bare run);
* ``verify``  — static plan verification only (the default shipped
  configuration; the cost lands at plan build, not in the step);
* ``dynamic`` — verification plus full dynamic shm access-event logging
  and a race scan at the end of every round (``detect_races=True``).

It times whole steps and reads neither of the executor's round-time
clocks (``exchange_wait_s`` / ``compute_s``; their one attribution rule
is in ``docs/parallel.md``).

Also reports the one-shot static verification wall time (the price of
refusing an unverified plan) and the access events replayed per step.
Persists ``benchmarks/output/checkers.txt`` and ``BENCH_checkers.json``
at the repo root; the numbers back the default-on decision recorded in
``EXPERIMENTS.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.planverify import verify_process_plan  # noqa: E402
from repro.hydro.integrator import HydroIntegrator  # noqa: E402

from bench_parallel import best_of, build_mesh  # noqa: E402

OUTPUT_DIR = Path(__file__).parent / "output"

CONFIGS = {
    "off": dict(verify_plans=False, detect_races=False),
    "verify": dict(verify_plans=True, detect_races=False),
    "dynamic": dict(verify_plans=True, detect_races=True),
}


def bench_case(levels: int, nprocs: int, reps: int, trials: int) -> dict:
    dt = 1e-4
    out = {"levels": levels, "nprocs": nprocs, "configs": {}}
    for name, kwargs in CONFIGS.items():
        mesh, eos = build_mesh(levels)
        ex = HydroIntegrator(
            mesh, eos, backend="process", nprocs=nprocs, **kwargs
        ).executor()
        try:
            gc.collect()
            t0 = time.perf_counter()
            ex.step(dt)  # cold: fork + arenas + plan (+ verification)
            cold_s = time.perf_counter() - t0
            warm_s = best_of(lambda: ex.step(dt), reps, trials)
            entry = {
                "cold_ms": cold_s * 1e3,
                "warm_ms": warm_s * 1e3,
            }
            if ex.race_detector is not None:
                det = ex.race_detector
                entry["events_seen"] = det.events_seen
                entry["scans"] = det.scans
                entry["findings"] = len(det.findings)
                entry["dropped"] = det.dropped
            if name == "verify":
                t0 = time.perf_counter()
                violations = verify_process_plan(ex.plan)
                entry["verify_ms"] = (time.perf_counter() - t0) * 1e3
                entry["violations"] = len(violations)
        finally:
            ex.close()
        out["configs"][name] = entry
    base = out["configs"]["off"]["warm_ms"]
    for entry in out["configs"].values():
        entry["overhead_vs_off"] = entry["warm_ms"] / base - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="level-1 only, one trial: the CI plumbing check",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        cases = [bench_case(1, nprocs=2, reps=1, trials=1)]
    else:
        cases = [
            bench_case(1, nprocs=2, reps=3, trials=4),
            bench_case(2, nprocs=2, reps=1, trials=3),
        ]

    lines = [
        "process-backend checker overhead: warm RK3 step, min-of-trials",
        f"{'mesh':<10} {'config':>8} {'warm':>9} {'overhead':>9} "
        f"{'verify':>8} {'events/scan':>12}",
    ]
    ok = True
    for c in cases:
        for name, e in c["configs"].items():
            verify = f"{e['verify_ms']:.1f}ms" if "verify_ms" in e else "-"
            events = (
                f"{e['events_seen']}/{e['scans']}" if "events_seen" in e
                else "-"
            )
            lines.append(
                f"level {c['levels']:<4} {name:>8} {e['warm_ms']:>8.1f} "
                f"{e['overhead_vs_off']:>+8.1%} {verify:>8} {events:>12}"
            )
            ok &= e.get("findings", 0) == 0 and e.get("violations", 0) == 0

    lines.append(
        f"clean-run invariant (zero findings, zero violations): "
        f"{'PASS' if ok else 'FAIL'}"
    )
    text = "\n".join(lines)
    print(text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "checkers.txt").write_text(text + "\n")
    (REPO_ROOT / "BENCH_checkers.json").write_text(json.dumps(
        {"benchmark": "checkers", "smoke": args.smoke, "cases": cases},
        indent=2,
    ) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
