"""Message-coalescing benchmark: the bundled ghost exchange.

Standalone (not a paper figure):

    PYTHONPATH=src python benchmarks/bench_comms.py [--smoke]

Measures the locality-aware bundle layer (``repro.comms``, see
``docs/comms.md``) through the functional distributed driver: the warm
RK3 step at levels 1 and 2 on 4 localities, with the per-step payload
message count against the closed-form neighbor-pair bound.  The per-face
exchange it replaced survives as a *pricing* ablation only, so the
with/without comparison is the discrete-event one (± coalescing x ± the
SVII-B local-communication optimization across node counts — the
simulated analogue of the paper's with/without-optimization scaling
figure).  Persists:

* ``benchmarks/output/comms.txt`` — the human-readable tables,
* ``BENCH_comms.json`` at the repo root — machine-readable numbers.

Gates (exit 1 on violation): the payload message count equals
``3 x len(neighbor_locality_pairs)``, and after the timed steps the
driver's mesh agrees **bit-for-bit** (``np.array_equal``) with a serial
``HydroIntegrator`` stepped as often — coalescing routes bytes, it must
never change them.

Timing methodology: minimum over several single-step trials,
``gc.collect()`` before each.  Each step is also decomposed into
*in-kernel time* (the rank ops' stacked hydro kernels, read from the
driver's ``registry`` ``hydro.*`` timers) and *runtime/exchange overhead*
(everything else: task-graph machinery, pack/unpack, transport timers) —
the overhead column is the cost coalescing attacks.
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

from repro.comms import neighbor_locality_pairs  # noqa: E402
from repro.core.distributed import DistributedHydroDriver  # noqa: E402
from repro.distsim import RunConfig  # noqa: E402
from repro.distsim.sweep import comm_ablation_curves  # noqa: E402
from repro.hydro import HydroIntegrator, IdealGasEOS  # noqa: E402
from repro.hydro.integrator import _RK3_STAGES  # noqa: E402
from repro.machines import FUGAKU  # noqa: E402
from repro.octree import AmrMesh, Field  # noqa: E402
from repro.octree.partition import sfc_partition  # noqa: E402
from repro.scenarios.spec import ScenarioSpec  # noqa: E402

OUTPUT_DIR = Path(__file__).parent / "output"
NODES = 4
DT = 1e-4


def build_mesh(levels: int, n: int = 8, seed: int = 0):
    """A smooth state on a uniformly refined mesh (level 2: 64 leaves)."""
    rng = np.random.default_rng(seed)
    mesh = AmrMesh(n=n, ghost=2, domain_size=1.0)
    for _ in range(levels):
        for key in list(mesh.leaf_keys()):
            mesh.refine(key)
    eos = IdealGasEOS()
    for leaf in mesh.leaves():
        x, y, z = leaf.cell_centers()
        rho = 1.0 + 0.3 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        rho += 0.05 * rng.random(x.shape)
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


#: The ``hydro.*`` timers the rank ops' kernels report (disjoint spans).
KERNEL_TIMERS = (
    "hydro.primitives", "hydro.reconstruct", "hydro.riemann",
    "hydro.divergence", "hydro.update",
)


def _timed_steps(driver, trials: int):
    """Min total step time and min runtime overhead over ``trials`` steps."""
    best_total = best_overhead = float("inf")
    for _ in range(trials):
        gc.collect()
        driver.registry.reset()
        t0 = time.perf_counter()
        driver.step(DT)
        total = time.perf_counter() - t0
        kernel = sum(driver.registry.total(name) for name in KERNEL_TIMERS)
        best_total = min(best_total, total)
        best_overhead = min(best_overhead, total - kernel)
    return best_total, best_overhead


def bench_driver(levels: int, trials: int):
    """Warm distributed step, checked against the serial integrator."""
    mesh, eos = build_mesh(levels)
    mesh_serial, _ = build_mesh(levels)
    driver = DistributedHydroDriver(
        mesh, eos, config=RunConfig(machine=FUGAKU, nodes=NODES)
    )
    serial = HydroIntegrator(mesh_serial, eos)

    gc.collect()
    t0 = time.perf_counter()
    result = driver.step(DT)  # arena adoption + bundle-plan build + first step
    cold_s = time.perf_counter() - t0
    warm, overhead = _timed_steps(driver, trials)
    for _ in range(driver.steps_taken):
        serial.step(DT)

    drift = 0.0
    for key in mesh.leaf_keys():
        a = mesh.nodes[key].subgrid.data
        b = mesh_serial.nodes[key].subgrid.data
        if not np.array_equal(a, b):
            drift = max(drift, float(np.abs(a - b).max()))

    sfc_partition(mesh, NODES)  # the driver's map, onto leaf.locality
    pairs = neighbor_locality_pairs(mesh)
    return {
        "levels": levels,
        "leaves": len(mesh.leaves()),
        "localities": NODES,
        "cold_coalesced_ms": cold_s * 1e3,
        "warm_coalesced_ms": warm * 1e3,
        "overhead_coalesced_ms": overhead * 1e3,
        "payload_messages_coalesced": result.messages,
        "closed_form_messages": len(_RK3_STAGES) * len(pairs),
        "neighbor_pairs": len(pairs),
        "drift": drift,
    }


def bench_ablation(n_subgrids: int, nodes):
    """The DES ablation: makespan and message counts per variant."""
    spec = ScenarioSpec(name="bench", n_subgrids=n_subgrids, max_level=2)
    curves = comm_ablation_curves(spec, FUGAKU, nodes)
    return {
        "n_subgrids": n_subgrids,
        "nodes": list(nodes),
        "variants": {
            label: {
                "makespan_ms": [r.makespan_s * 1e3 for r in curve],
                "payload_messages": [r.messages for r in curve],
            }
            for label, curve in curves.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, one trial: drift gate + plumbing check for CI",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        driver_cases = [bench_driver(1, trials=1)]
        ablation = bench_ablation(64, [1, 4])
    else:
        driver_cases = [
            bench_driver(1, trials=12),
            bench_driver(2, trials=12),
        ]
        ablation = bench_ablation(512, [1, 4, 16, 64])

    lines = [
        "comms: coalesced ghost exchange (one bundle per neighbor locality "
        "per stage)",
        f"functional driver, {NODES} localities (min-of-trials, ms per RK3 "
        "step)",
        "overhead = step minus in-kernel time: the runtime/exchange cost "
        "coalescing targets",
        f"{'mesh':<10} {'leaves':>6} {'cold':>8} {'warm':>8} {'ovh':>7} "
        f"{'msgs':>5}",
    ]
    for c in driver_cases:
        lines.append(
            f"level {c['levels']:<4} {c['leaves']:>6} "
            f"{c['cold_coalesced_ms']:>8.1f} {c['warm_coalesced_ms']:>8.1f} "
            f"{c['overhead_coalesced_ms']:>7.1f} "
            f"{c['payload_messages_coalesced']:>5}"
        )
    for c in driver_cases:
        lines.append(
            f"drift level {c['levels']}: max|driver - serial| = "
            f"{c['drift']:.3e}; "
            f"messages {c['payload_messages_coalesced']} == closed form "
            f"{c['closed_form_messages']}"
        )
    lines.append("")
    lines.append(
        f"DES ablation ({ablation['n_subgrids']} sub-grids, makespan ms "
        f"across nodes {ablation['nodes']}):"
    )
    for label, data in ablation["variants"].items():
        spans = " ".join(f"{ms:8.3f}" for ms in data["makespan_ms"])
        lines.append(f"  {label:<20} {spans}")

    text = "\n".join(lines)
    print(text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "comms.txt").write_text(text + "\n")
    payload = {
        "benchmark": "comms",
        "smoke": args.smoke,
        "drift_tol": 0.0,
        "drift": {
            f"level {c['levels']}": c["drift"] for c in driver_cases
        },
        "cases": driver_cases,
        "ablation": ablation,
    }
    (REPO_ROOT / "BENCH_comms.json").write_text(json.dumps(payload, indent=2) + "\n")

    status = 0
    for c in driver_cases:
        if c["drift"] != 0.0:
            print(
                f"FAIL: level {c['levels']} driver vs serial drift "
                f"{c['drift']:.3e} != 0 (coalescing must be bit-identical)",
                file=sys.stderr,
            )
            status = 1
        if c["payload_messages_coalesced"] != c["closed_form_messages"]:
            print(
                f"FAIL: level {c['levels']} payload messages "
                f"{c['payload_messages_coalesced']} != closed form "
                f"{c['closed_form_messages']}",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
