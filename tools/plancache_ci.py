"""CI gate for the persistent plan cache (``repro.core.plancache``).

    PYTHONPATH=src python tools/plancache_ci.py [--cache-dir DIR]
                                                [--backend serial|process]

Three checks, exit non-zero on any violation (``--backend process`` runs
the first two over the process hydro backend — the cache must be honoured
there exactly as on the serial one):

1. **Cold seed** — a blast run with an empty cache performs only cold
   plan builds and stores an entry per (layer, topology).
2. **Zero-cold rerun** — a fresh process over the same run performs
   **zero** cold plan builds (asserted from the ``plan.*.cold_builds``
   counters, not from timing) and its fields are bit-identical to the
   cold run's.
3. **Corruption recovery** — every cache entry is truncated in place;
   the next run must fall back to cold builds (misses, never a wrong
   plan), overwrite the bad entries, and still produce bit-identical
   fields; a final run must then hit cleanly again.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.plancache import PlanCache  # noqa: E402
from repro.gravity.fmm import FmmSolver  # noqa: E402
from repro.hydro import HydroIntegrator  # noqa: E402
from repro.profiling.apex import CounterRegistry  # noqa: E402
from repro.scenarios.blast import sedov_blast  # noqa: E402

STEPS = 2
DT = 1e-4
LAYERS = ("hydro", "fmm")


def run(cache_dir: Path, backend: str = "serial"):
    """One blast run with self-gravity; returns (registry, cache, fields)."""
    scenario = sedov_blast(levels=1)
    mesh = scenario.mesh
    reg = CounterRegistry()
    cache = PlanCache(cache_dir)
    solver = FmmSolver(empty_mass_threshold=1e-12, plan_cache=cache)
    solver.registry = reg
    integ = HydroIntegrator(
        mesh,
        eos=scenario.eos,
        gravity=solver,
        plan_cache=cache,
        backend=backend,
        nprocs=2,
    )
    integ.registry = reg
    try:
        for _ in range(STEPS):
            integ.step(DT)
    finally:
        integ.close()
    fields = {
        key: mesh.nodes[key].subgrid.data.copy()
        for key in sorted(mesh.leaf_keys())
    }
    return reg, cache, fields


def counts(reg: CounterRegistry, tier: str) -> int:
    return sum(reg.count(f"plan.{layer}.{tier}_builds") for layer in LAYERS)


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)


def assert_fields_equal(a, b, label: str) -> None:
    check(sorted(a) == sorted(b), f"{label}: leaf sets differ")
    for key in a:
        check(
            np.array_equal(a[key], b[key]),
            f"{label}: fields differ at leaf {key}",
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cache-dir", default="/tmp/repro-plancache-ci", metavar="DIR"
    )
    parser.add_argument(
        "--backend", default="serial", choices=("serial", "process")
    )
    args = parser.parse_args(argv)
    cache_dir = Path(args.cache_dir)
    if cache_dir.exists():
        shutil.rmtree(cache_dir)

    reg, cache, fields_cold = run(cache_dir, args.backend)
    cold = counts(reg, "cold")
    check(cold >= 2, f"cold seed run built only {cold} cold plan(s)")
    check(cache.stats.stores >= 2, "cold seed run stored no entries")
    entries = sorted(cache_dir.glob("*.npz"))
    check(bool(entries), "no cache entries on disk after the seed run")
    print(f"seed: {cold} cold build(s), {len(entries)} entr(ies) stored")

    reg, cache, fields_hit = run(cache_dir, args.backend)
    check(
        counts(reg, "cold") == 0,
        f"warmed rerun performed {counts(reg, 'cold')} cold build(s)",
    )
    check(counts(reg, "cache_hit") >= 2, "warmed rerun recorded no cache hits")
    assert_fields_equal(fields_cold, fields_hit, "cold vs cache-hit rerun")
    print(
        f"rerun: 0 cold builds, {counts(reg, 'cache_hit')} cache hit(s), "
        "fields bit-identical"
    )
    if args.backend == "process":
        print("plan-cache CI gate (process backend): PASS")
        return 0

    for entry in entries:
        entry.write_bytes(entry.read_bytes()[: max(1, entry.stat().st_size // 3)])
    reg, cache, fields_rec = run(cache_dir)
    check(
        counts(reg, "cold") >= 2,
        "corrupted entries did not fall back to cold builds",
    )
    assert_fields_equal(fields_cold, fields_rec, "recovery run")
    print(
        f"corruption: {counts(reg, 'cold')} cold rebuild(s), "
        f"{cache.stats.misses} miss(es), fields bit-identical"
    )

    reg, cache, fields_again = run(cache_dir)
    check(
        counts(reg, "cold") == 0,
        "cache not repaired after corruption recovery",
    )
    assert_fields_equal(fields_cold, fields_again, "post-recovery rerun")
    print("repair: corrupted entries overwritten, rerun hits cleanly")
    print("plan-cache CI gate: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
