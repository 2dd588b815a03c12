"""Array-backend benchmark: seed kernels vs dispatch vs the JIT backend.

Standalone (not a paper figure):

    PYTHONPATH=src python benchmarks/bench_backend.py [--smoke]

Times the warm batched hydro step (``HydroIntegrator.step``) under
each host array backend (:mod:`repro.kokkos.backend`): the seed path
(``array_backend=None``), dispatch through ``numpy`` (must be free — same
functions, different call path) and the preferred JIT backend
(``numba`` when installed, its interpreted ``pyjit`` twin otherwise).
Verifies equivalence before timing — numpy-dispatch must be bit-identical,
the JIT backend within the crosscheck tolerance budgets — and persists:

* ``benchmarks/output/backend.txt`` — the human-readable table,
* ``BENCH_backend.json`` at the repo root — machine-readable numbers.

Acceptance gate: with numba installed, the JIT warm step must reach at
least ``GATE_SPEEDUP`` over the seed path on the larger mesh.  Without
numba the ``pyjit`` twin is interpreted NumPy and the gate does not apply
(recorded as ``numba_available: false``).
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

from repro.core.crosscheck import (  # noqa: E402
    TOLERANCE_BUDGETS,
    crosscheck_array_backend,
)
from repro.hydro import HydroIntegrator, IdealGasEOS  # noqa: E402
from repro.kokkos.backend import available_backends, jit_backend_name  # noqa: E402
from repro.octree import AmrMesh, Field  # noqa: E402

OUTPUT_DIR = Path(__file__).parent / "output"
#: Minimum JIT-over-seed warm-step speedup demanded when numba is installed.
GATE_SPEEDUP = 1.2


def build_mesh(levels: int, n: int = 8, seed: int = 0):
    """A smooth, rotating-star-like state (same family as bench_hydro_plan)."""
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


def verify_equivalence(levels: int, steps: int, jit_name: str):
    """Exact tier for numpy-dispatch, tolerance tier for the JIT backend."""
    mesh, eos = build_mesh(levels)
    exact = crosscheck_array_backend(mesh, "numpy", tier="exact",
                                     steps=steps, eos=eos)
    mesh, eos = build_mesh(levels)
    tol = crosscheck_array_backend(mesh, jit_name, tier="tolerance",
                                   steps=steps, eos=eos)
    return exact, tol


def bench_level(levels: int, reps: int, trials: int, jit_name: str):
    """Warm fixed-dt step time per backend on one mesh size."""
    dt = 1e-4
    times = {}
    for label, backend in (
        ("seed", None), ("numpy", "numpy"), (jit_name, jit_name),
    ):
        mesh, eos = build_mesh(levels)
        integ = HydroIntegrator(mesh, eos, array_backend=backend)
        integ.step(dt)  # warm: plan build + (for JIT) kernel compilation
        times[label] = best_of(lambda: integ.step(dt), reps, trials)
        if label == "seed":
            n_leaves, n_cells = len(mesh.leaves()), int(mesh.n_cells())
    return {
        "levels": levels,
        "leaves": n_leaves,
        "cells": n_cells,
        "seed_ms": times["seed"] * 1e3,
        "numpy_ms": times["numpy"] * 1e3,
        "jit_ms": times[jit_name] * 1e3,
        "numpy_overhead": times["numpy"] / times["seed"],
        "jit_speedup": times["seed"] / times[jit_name],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes, one trial: equivalence gate + plumbing check for CI",
    )
    args = parser.parse_args(argv)

    jit_name = jit_backend_name()
    numba_available = "numba" in available_backends()

    exact, tol = verify_equivalence(
        levels=1, steps=2 if args.smoke else 3, jit_name=jit_name
    )

    if args.smoke:
        cases = [bench_level(1, reps=1, trials=1, jit_name=jit_name)]
    else:
        cases = [
            bench_level(1, reps=5, trials=8, jit_name=jit_name),
            bench_level(2, reps=2, trials=4, jit_name=jit_name),
        ]

    lines = [
        f"array backends: warm batched hydro step (min-of-trials, ms); "
        f"jit backend = {jit_name}"
        + ("" if numba_available else " (numba not installed)"),
        f"{'mesh':<10} {'leaves':>6} {'seed':>8} {'numpy':>8} {'jit':>8} "
        f"{'np-ovh':>7} {'jit-speedup':>11}",
    ]
    for c in cases:
        lines.append(
            f"level {c['levels']:<4} {c['leaves']:>6} {c['seed_ms']:>8.1f} "
            f"{c['numpy_ms']:>8.1f} {c['jit_ms']:>8.1f} "
            f"{c['numpy_overhead']:>6.2f}x {c['jit_speedup']:>10.2f}x"
        )
    lines.append(
        f"equivalence: numpy exact tier bit-identical over {exact.steps} "
        f"steps; {jit_name} tolerance tier max rel err {tol.max_rel_err:.2e} "
        f"(budgets {min(TOLERANCE_BUDGETS.values()):.0e}.."
        f"{max(TOLERANCE_BUDGETS.values()):.0e})"
    )

    text = "\n".join(lines)
    print(text)
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "backend.txt").write_text(text + "\n")
    payload = {
        "benchmark": "backend",
        "smoke": args.smoke,
        "jit_backend": jit_name,
        "numba_available": numba_available,
        "gate_speedup": GATE_SPEEDUP,
        "exact_tier_steps": exact.steps,
        "tolerance_max_rel_err": tol.max_rel_err,
        "cases": cases,
    }
    (REPO_ROOT / "BENCH_backend.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    if numba_available and not args.smoke:
        worst = cases[-1]["jit_speedup"]
        if worst < GATE_SPEEDUP:
            print(
                f"FAIL: numba warm-step speedup {worst:.2f}x < "
                f"{GATE_SPEEDUP}x gate",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
