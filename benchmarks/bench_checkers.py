"""Checker overhead: what do the process-backend correctness layers cost?

Standalone (not a paper figure):

    PYTHONPATH=src python benchmarks/bench_checkers.py [--smoke]

Times the warm process-backend RK3 step in three configurations:

* ``off``     — ``verify_plans=False, detect_races=False`` (bare run);
* ``verify``  — static plan verification only (the default shipped
  configuration; the cost lands at plan build, not in the step);
* ``dynamic`` — verification plus full dynamic shm access-event logging
  and a race scan at the end of every round (``detect_races=True``).

The three configurations run side by side, one executor each on its own
copy of the same mesh, and alternate step by step (the order rotates
every round).  The overhead of ``verify`` and ``dynamic`` is the median
of the per-round differences to ``off``, with the IQR of those
differences, both as a share of the median ``off`` step: pairing cancels
the host's slow drift, which on a shared host is larger than the
checkers' cost.  An IQR that straddles zero is printed as "within
noise".  Cases: the level-1 and level-2 benchmark meshes and the
level-2 Sedov blast, each on 2 workers.

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

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.planverify import verify_process_plan  # noqa: E402
from repro.hydro.integrator import HydroIntegrator  # noqa: E402
from repro.scenarios import sedov_blast  # noqa: E402

from bench_parallel import build_mesh  # noqa: E402

OUTPUT_DIR = Path(__file__).parent / "output"

CONFIGS = {
    "off": dict(verify_plans=False, detect_races=False),
    "verify": dict(verify_plans=True, detect_races=False),
    "dynamic": dict(verify_plans=True, detect_races=True),
}


def blast_mesh():
    scenario = sedov_blast(levels=2)
    return scenario.mesh, scenario.eos


def paired_overhead(base, other) -> dict:
    """Median and IQR of the per-round differences ``other - base``, as
    shares of the median ``base`` step."""
    diffs = np.asarray(other) - np.asarray(base)
    q25, q50, q75 = np.percentile(diffs, [25, 50, 75]) / np.median(base)
    return {"median": q50, "q25": q25, "q75": q75,
            "within_noise": bool(q25 < 0.0 < q75)}


def bench_case(label: str, make_mesh, nprocs: int, rounds: int) -> dict:
    dt = 1e-4
    out = {"mesh": label, "nprocs": nprocs, "rounds": rounds, "configs": {}}
    executors = {}
    try:
        for name, kwargs in CONFIGS.items():
            mesh, eos = make_mesh()
            ex = executors[name] = HydroIntegrator(
                mesh, eos, backend="process", nprocs=nprocs, **kwargs
            ).executor()
            gc.collect()
            t0 = time.perf_counter()
            ex.step(dt)  # cold: fork + arenas + plan (+ verification)
            out["configs"][name] = {"cold_ms": (time.perf_counter() - t0) * 1e3}
        names = list(CONFIGS)
        samples = {name: [] for name in names}
        for r in range(rounds):
            gc.collect()
            for name in names[r % 3:] + names[:r % 3]:
                t0 = time.perf_counter()
                executors[name].step(dt)
                samples[name].append((time.perf_counter() - t0) * 1e3)
        for name, ex in executors.items():
            entry = out["configs"][name]
            entry["warm_ms_p50"] = float(np.median(samples[name]))
            if name != "off":
                entry["overhead_vs_off"] = paired_overhead(
                    samples["off"], samples[name]
                )
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
        for ex in executors.values():
            ex.close()
    return out


def _overhead_text(e: dict) -> str:
    o = e.get("overhead_vs_off")
    if o is None:
        return "-"
    text = f"{o['median']:+.1%} [{o['q25']:+.1%}, {o['q75']:+.1%}]"
    return text + (" within noise" if o["within_noise"] else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="level-1 only, a few rounds: the CI plumbing check",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        cases = [bench_case("level 1", lambda: build_mesh(1), 2, rounds=3)]
    else:
        cases = [
            bench_case("level 1", lambda: build_mesh(1), 2, rounds=60),
            bench_case("level 2", lambda: build_mesh(2), 2, rounds=30),
            bench_case("blast l2", blast_mesh, 2, rounds=30),
        ]

    lines = [
        "process-backend checker overhead: warm RK3 step, configs "
        "alternating step by step; overhead = median paired difference "
        "to off [IQR]",
        f"{'mesh':<9} {'config':>8} {'warm p50':>9} "
        f"{'overhead vs off [IQR]':>36} {'verify':>8} {'events/scan':>12}",
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
                f"{c['mesh']:<9} {name:>8} {e['warm_ms_p50']:>8.1f} "
                f"{_overhead_text(e):>36} {verify:>8} {events:>12}"
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
