"""Plan maintenance: incremental regrid rebuilds + persistent cache.

Standalone (not a paper figure):

    PYTHONPATH=src python benchmarks/bench_plan_cache.py [--smoke]

Measures the two halves of the plan-lifecycle contract
(``docs/plan_lifecycle.md``) on the Sedov blast mesh with self-gravity,
so the totals cover both cached plan layers (batched hydro + FMM):

* **Regrid-heavy incremental maintenance** — the same refine/derefine
  sequence is run twice: incrementally (each plan request diffs the
  topology its plan was built for against the live mesh; the hydro plan
  re-traces only the ghost faces the changed keys touch, the FMM plan
  re-derives its pair lists and reuses its predecessor's cell positions
  and P2P gather matrices) and cold every regrid (both plan chains are
  broken with ``invalidate_plan()`` before every step).  Both runs must
  be **bit-identical** field-for-field; the gate requires the incremental
  run's total plan-rebuild time, summed over both layers and all tiers,
  to be at least ``REBUILD_GATE``x smaller.  The per-layer (hydro, fmm)
  totals and ratios are reported beside it for information only.
* **Persistent cache hits** — a fresh process over the same topology
  must serve its plan from the content-addressed store
  (``repro.core.plancache``) with **zero** cold builds, asserted from
  the ``plan.hydro.*_builds`` counters, and again step bit-identically.

Persists ``benchmarks/output/plancache.txt`` (human-readable) and
``BENCH_plancache.json`` at the repo root (machine-readable).  The
speedup gate applies only to the full run; the zero-cold-builds and
bit-identity assertions are enforced in smoke mode too.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.plancache import PlanCache  # noqa: E402
from repro.gravity.fmm import FmmSolver  # noqa: E402
from repro.hydro import HydroIntegrator  # noqa: E402
from repro.profiling.apex import CounterRegistry  # noqa: E402
from repro.scenarios.blast import sedov_blast  # noqa: E402

OUTPUT_DIR = Path(__file__).parent / "output"
#: Incremental plan maintenance must beat cold-every-regrid by this factor
#: on total rebuild time.
REBUILD_GATE = 3.0
DT = 1e-4


def _mutate(mesh, step: int, target) -> None:
    """Deterministic regrid churn: refine ``target`` on even steps,
    coarsen it back on odd ones."""
    if step % 2 == 0:
        mesh.refine(target)
    else:
        mesh.derefine(target)


def _leaf_target(mesh):
    return sorted(mesh.leaf_keys())[0]


def _run(levels: int, steps: int, incremental: bool, plan_cache=None):
    """Run the churn sequence with self-gravity; return (registry, mesh).

    ``incremental=False`` is the cold-every-regrid baseline: both plan
    chains are broken each regrid (``invalidate_plan()`` forgets the plan
    and the topology it was built for, and the hydro build then clears
    its face-trace cache) — pre-delta-maintenance semantics.
    """
    scenario = sedov_blast(levels=levels)
    mesh = scenario.mesh
    target = _leaf_target(mesh)
    reg = CounterRegistry()
    solver = FmmSolver(empty_mass_threshold=1e-12, plan_cache=plan_cache)
    solver.registry = reg
    integ = HydroIntegrator(
        mesh,
        eos=scenario.eos,
        gravity=solver,
        plan_cache=plan_cache,
    )
    integ.registry = reg
    try:
        for step in range(steps):
            _mutate(mesh, step, target)
            if not incremental:
                integ.invalidate_plan()
                solver.invalidate_plan()
            integ.step(DT)
    finally:
        integ.close()
    return reg, mesh


def _assert_identical(mesh_a, mesh_b, label: str) -> None:
    keys_a = sorted(mesh_a.leaf_keys())
    assert keys_a == sorted(mesh_b.leaf_keys()), f"{label}: leaf sets differ"
    for key in keys_a:
        a = mesh_a.nodes[key].subgrid.data
        b = mesh_b.nodes[key].subgrid.data
        if not np.array_equal(a, b):
            raise AssertionError(f"{label}: fields differ at leaf {key}")


def bench_regrid(levels: int, steps: int) -> dict:
    gc.collect()
    reg_delta, mesh_delta = _run(levels, steps, incremental=True)
    gc.collect()
    reg_cold, mesh_cold = _run(levels, steps, incremental=False)
    _assert_identical(mesh_delta, mesh_cold, "incremental vs cold-every-regrid")

    # Plan-rebuild wall-clock per layer, whichever tier each rebuild took;
    # the gate reads the sum over both layers.
    def rebuild_s(reg, layer):
        tiers = ("delta", "cache_hit", "cold")
        return sum(reg.total(f"plan.{layer}.{tier}") for tier in tiers)

    layers = {}
    for layer in ("hydro", "fmm"):
        incr, cold = rebuild_s(reg_delta, layer), rebuild_s(reg_cold, layer)
        layers[layer] = {
            "rebuild_s_incremental": incr,
            "rebuild_s_cold_every_regrid": cold,
            "speedup": cold / incr if incr > 0 else float("inf"),
        }
    incr_s = sum(v["rebuild_s_incremental"] for v in layers.values())
    cold_s = sum(v["rebuild_s_cold_every_regrid"] for v in layers.values())

    def builds(reg, tier):
        return reg.count(f"plan.hydro.{tier}_builds") + reg.count(
            f"plan.fmm.{tier}_builds"
        )

    return {
        "levels": levels,
        "steps": steps,
        "leaves": len(mesh_delta.leaves()),
        "delta_builds": builds(reg_delta, "delta"),
        "cold_builds_incremental": builds(reg_delta, "cold"),
        "cold_builds_every_regrid": builds(reg_cold, "cold"),
        "rebuild_s_incremental": incr_s,
        "rebuild_s_cold_every_regrid": cold_s,
        "speedup": cold_s / incr_s if incr_s > 0 else float("inf"),
        "layers": layers,
        "bit_identical": True,  # _assert_identical raised otherwise
    }


def bench_cache(levels: int, steps: int, cache_dir: Path) -> dict:
    if cache_dir.exists():
        shutil.rmtree(cache_dir)
    gc.collect()
    reg_cold, mesh_cold = _run(
        levels, steps, incremental=True, plan_cache=PlanCache(cache_dir)
    )
    gc.collect()
    # The rerun breaks its plan chains every regrid, so every plan request
    # is served by the store.
    hit_cache = PlanCache(cache_dir)
    reg_hit, mesh_hit = _run(levels, steps, incremental=False, plan_cache=hit_cache)
    _assert_identical(mesh_cold, mesh_hit, "cold vs cache-hit rerun")

    cold_builds_rerun = reg_hit.count("plan.hydro.cold_builds") + reg_hit.count(
        "plan.fmm.cold_builds"
    )
    if cold_builds_rerun != 0:
        raise AssertionError(
            f"warmed rerun performed {cold_builds_rerun} cold plan build(s); "
            "the cache must serve every topology"
        )
    cold_first = reg_cold.count("plan.hydro.cold_builds") + reg_cold.count(
        "plan.fmm.cold_builds"
    )
    hits = reg_hit.count("plan.hydro.cache_hit_builds") + reg_hit.count(
        "plan.fmm.cache_hit_builds"
    )
    cold_s = reg_cold.total("plan.hydro.cold") + reg_cold.total("plan.fmm.cold")
    hit_s = reg_hit.total("plan.hydro.cache_hit") + reg_hit.total(
        "plan.fmm.cache_hit"
    )
    return {
        "levels": levels,
        "steps": steps,
        "entries": sum(1 for _ in cache_dir.iterdir()),
        "cold_builds_first_run": cold_first,
        "cache_hits_rerun": hits,
        "cold_builds_rerun": cold_builds_rerun,
        "cold_build_ms": cold_s / max(cold_first, 1) * 1e3,
        "cache_hit_ms": hit_s / max(hits, 1) * 1e3,
        "bit_identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="level-1, few steps: correctness assertions only, no gate",
    )
    parser.add_argument(
        "--cache-dir",
        default=str(OUTPUT_DIR / "plancache"),
        help="scratch directory for the persistent-cache case (wiped)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        regrid = bench_regrid(levels=1, steps=4)
        cache = bench_cache(levels=1, steps=2, cache_dir=Path(args.cache_dir))
    else:
        regrid = bench_regrid(levels=2, steps=24)
        cache = bench_cache(levels=2, steps=4, cache_dir=Path(args.cache_dir))

    lines = [
        "plan lifecycle: incremental regrid maintenance + persistent cache",
        f"regrid churn (level {regrid['levels']}, {regrid['steps']} steps, "
        f"{regrid['leaves']} leaves):",
        f"  incremental        rebuild total {regrid['rebuild_s_incremental'] * 1e3:9.1f} ms "
        f"({regrid['delta_builds']} delta + "
        f"{regrid['cold_builds_incremental']} cold builds)",
        f"  cold every regrid  rebuild total "
        f"{regrid['rebuild_s_cold_every_regrid'] * 1e3:9.1f} ms "
        f"({regrid['cold_builds_every_regrid']} cold builds)",
        f"  speedup {regrid['speedup']:.2f}x, fields bit-identical",
        *(
            f"    {layer:<5} incremental {v['rebuild_s_incremental'] * 1e3:9.1f} ms, "
            f"cold every regrid {v['rebuild_s_cold_every_regrid'] * 1e3:9.1f} ms "
            f"({v['speedup']:.2f}x, informational)"
            for layer, v in regrid["layers"].items()
        ),
        f"persistent cache (level {cache['levels']}, {cache['steps']} steps):",
        f"  first run: {cache['cold_builds_first_run']} cold builds at "
        f"{cache['cold_build_ms']:.1f} ms each, {cache['entries']} entries stored",
        f"  warm rerun: {cache['cache_hits_rerun']} cache hits at "
        f"{cache['cache_hit_ms']:.1f} ms each, "
        f"{cache['cold_builds_rerun']} cold builds (must be 0), "
        "fields bit-identical",
    ]

    gate_applies = not args.smoke
    gate_ok = True
    if gate_applies:
        gate_ok = regrid["speedup"] >= REBUILD_GATE
        lines.append(
            f"gate: incremental rebuild speedup {regrid['speedup']:.2f}x "
            f"(require >= {REBUILD_GATE}x) {'PASS' if gate_ok else 'FAIL'}"
        )
    else:
        lines.append(
            "gate: speedup gate skipped (smoke mode); zero-cold-builds and "
            "bit-identity still enforced"
        )

    text = "\n".join(lines)
    print(text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "plancache.txt").write_text(text + "\n")
    payload = {
        "benchmark": "plancache",
        "smoke": args.smoke,
        "rebuild_gate": REBUILD_GATE,
        "gate_applies": gate_applies,
        "gate_ok": gate_ok,
        "regrid": regrid,
        "cache": cache,
    }
    (REPO_ROOT / "BENCH_plancache.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    if not gate_ok:
        print(
            f"FAIL: rebuild speedup below {REBUILD_GATE}x", file=sys.stderr
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
