#!/usr/bin/env python
"""Performance portability in one file (paper SIV + SVII-A).

The paper's portability claim is that one kernel body is instantiated with
a different SIMD type at compile time, and adding SVE was "trivial".  This
demo shows both halves as the repository has them:

1. the SIMD ABI registry (scalar / NEON / AVX2 / AVX-512 / SVE-512) and the
   kernel speedup the machine model prices each one at (Fig. 7's modelled
   curve);
2. the real hydro rhs kernel, ``stacked_rhs_kernel``, called on batches as
   wide as each ABI has float64 lanes, over the 64-leaf run of a level-2
   Sedov blast.  Every width gives the whole-run ``dudt`` bit for bit;
   the wall times are measured, not modelled.

    python examples/simd_portability_demo.py
"""

import time

import numpy as np

from repro.hydro import build_hydro_plan
from repro.hydro.plan import STENCIL_RADIUS, ScratchArena, stacked_rhs_kernel
from repro.octree import NFIELDS
from repro.scenarios import sedov_blast
from repro.simd import get_abi

ABIS = ("scalar", "neon128", "avx2", "avx512", "sve512")


def modelled_part() -> None:
    print("Part 1: the SIMD ABIs and their modelled kernel speedup")
    for name in ABIS:
        abi = get_abi(name)
        print(
            f"  {name:<8} {abi.register_bits:>3d}-bit  lanes={abi.lanes():<2d}  "
            f"speedup {abi.speedup_factor():4.2f}x vs scalar"
        )


def measured_part() -> None:
    print("\nPart 2: one rhs kernel body, one batch width per ABI (measured)")
    blast = sedov_blast(levels=2)
    plan = build_hydro_plan(blast.mesh)
    plan.ghosts.bundles[(0, 0)].apply(plan.arena)
    [run] = plan.runs[0]
    g, n = plan.ghost_width, plan.n
    w = slice(g - STENCIL_RADIUS, g + n + STENCIL_RADIUS)
    stacked = plan.arena.reshape(-1, NFIELDS, plan.m, plan.m, plan.m)
    u = stacked[run.lo : run.hi, :, w, w, w]

    whole = np.empty((len(u), NFIELDS, n, n, n))
    stacked_rhs_kernel(u, run.dx, blast.eos, whole, scratch=ScratchArena())
    for name in ABIS:
        width = get_abi(name).lanes()
        dudt = np.empty_like(whole)
        scratch = ScratchArena()
        start = time.perf_counter()
        for lo in range(0, len(u), width):
            stacked_rhs_kernel(
                u[lo : lo + width], run.dx, blast.eos, dudt[lo : lo + width],
                scratch=scratch,
            )
        elapsed = time.perf_counter() - start
        assert np.array_equal(dudt, whole), f"{name}: width {width} moved a bit"
        print(
            f"  {name:<8} {width} leaves/call  {elapsed * 1e3:7.1f} ms  "
            f"({len(u) * n**3 / elapsed / 1e6:.2f} M cells/s)"
        )
    print("\nSame dudt bits at every width — the portability contract holds.")


if __name__ == "__main__":
    modelled_part()
    measured_part()
