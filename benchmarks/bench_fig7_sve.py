"""Fig. 7: influence of SVE vectorization on distributed Ookami runs.

Paper finding: explicit SVE SIMD types speed up the compute kernels by a
factor of 2-3, clearly visible in cells/s across 1-128 nodes even though
only the compute kernels are vectorised.

Two series:

* ``fig7_sve`` — the modelled curve: SVE vs scalar cells/s from the
  machine model (``SimdAbi.speedup_factor()`` of the node's ABI);
* ``fig7_rhs_widths`` — the measured companion: the real hydro rhs
  kernel (``stacked_rhs_kernel``) over the 64-leaf run of a level-2
  Sedov blast, called on batches of 1 to 64 leaves.  NumPy's
  ufuncs are the vector units here, and the batch width is how much data
  one kernel-body instantiation streams per pass — the Python analogue of
  the SIMD width the paper swaps at compile time.  Every width must give
  the whole-run ``dudt`` bit for bit; the timings carry no gate.
"""

import time

import numpy as np

from repro.distsim import scaling_curve
from repro.distsim.sweep import node_series
from repro.hydro import build_hydro_plan
from repro.hydro.plan import (
    RHS_BLOCK_CELLS,
    STENCIL_RADIUS,
    ScratchArena,
    stacked_rhs_kernel,
)
from repro.machines import OOKAMI
from repro.octree import NFIELDS
from repro.scenarios import rotating_star, sedov_blast

from benchmarks.conftest import emit, format_series

#: Leaves per ``stacked_rhs_kernel`` call in the measured series.
WIDTHS = (1, 2, 4, 8, 16, 32, 64)
#: Timed sweeps per width, interleaved across widths.
REPEATS = 7


def run_curves():
    spec = rotating_star(level=5, build_mesh=False).spec
    nodes = node_series(1, 128)
    return {
        "sve": scaling_curve(spec, OOKAMI, nodes, simd=True),
        "scalar": scaling_curve(spec, OOKAMI, nodes, simd=False),
    }


def test_fig7_sve_vectorization(benchmark):
    curves = benchmark(run_curves)
    rows = []
    for sve, scalar in zip(curves["sve"], curves["scalar"]):
        rows.append(
            (sve.nodes, f"{sve.cells_per_second:.3e}",
             f"{scalar.cells_per_second:.3e}",
             f"{sve.cells_per_second / scalar.cells_per_second:.2f}x")
        )
    from repro.distsim.report import ascii_loglog, curve_to_points

    plot = ascii_loglog(
        {name: curve_to_points(curve) for name, curve in curves.items()}
    )
    emit(
        "fig7_sve",
        format_series("nodes  SVE_cells/s  scalar_cells/s  speedup", rows)
        + [""]
        + plot,
    )
    for row in rows:
        speedup = float(row[3][:-1])
        assert 1.8 < speedup < 3.0


def rhs_block():
    """The stencil-margin view of a level-2 Sedov blast's one 64-leaf run,
    ghost bands filled, plus its ``dx`` and EOS."""
    blast = sedov_blast(levels=2)
    plan = build_hydro_plan(blast.mesh)
    plan.ghosts.bundles[(0, 0)].apply(plan.arena)
    [run] = plan.runs[0]
    g, n = plan.ghost_width, plan.n
    w = slice(g - STENCIL_RADIUS, g + n + STENCIL_RADIUS)
    stacked = plan.arena.reshape(-1, NFIELDS, plan.m, plan.m, plan.m)
    return stacked[run.lo : run.hi, :, w, w, w], run.dx, blast.eos, n


def rhs_sweep(u, dx, eos, width, dudt, scratch):
    """The run's flux divergence, ``width`` leaves per kernel call."""
    for lo in range(0, len(u), width):
        stacked_rhs_kernel(
            u[lo : lo + width], dx, eos, dudt[lo : lo + width], scratch=scratch
        )


def measure_rhs_widths():
    """Median / IQR cells/s per width; asserts bit-identity to one
    whole-run call at every width."""
    u, dx, eos, n = rhs_block()
    leaves = len(u)
    assert leaves == max(WIDTHS)
    whole = np.empty((leaves, NFIELDS, n, n, n))
    stacked_rhs_kernel(u, dx, eos, whole, scratch=ScratchArena())
    dudt = {width: np.empty_like(whole) for width in WIDTHS}
    scratch = {width: ScratchArena() for width in WIDTHS}
    for width in WIDTHS:  # warm-up pass, and the one hard gate
        rhs_sweep(u, dx, eos, width, dudt[width], scratch[width])
        assert np.array_equal(dudt[width], whole), f"width {width} moved a bit"
    seconds = {width: [] for width in WIDTHS}
    for rep in range(REPEATS):
        # Alternate the order so no width always runs first or last.
        order = WIDTHS if rep % 2 == 0 else WIDTHS[::-1]
        for width in order:
            start = time.perf_counter()
            rhs_sweep(u, dx, eos, width, dudt[width], scratch[width])
            seconds[width].append(time.perf_counter() - start)
    cells = leaves * n**3
    rows = []
    for width in WIDTHS:
        rate = cells / np.array(seconds[width])
        q25, q50, q75 = np.percentile(rate, [25, 50, 75])
        step = " *" if width == RHS_BLOCK_CELLS // n**3 else ""
        rows.append((
            f"{width}{step}", width * n**3,
            f"{q50 / 1e6:.2f}", f"{(q75 - q25) / 1e6:.2f}",
        ))
    return rows


def test_fig7_measured_rhs_widths():
    rows = measure_rhs_widths()
    emit(
        "fig7_rhs_widths",
        format_series("leaves/call  cells/call  Mcells/s_median  Mcells/s_IQR", rows)
        + [
            "",
            f"{REPEATS} alternating sweeps per width; dudt bit-identical to the "
            "whole-run call at every width; * = the step's batch "
            "(RHS_BLOCK_CELLS)",
        ],
    )
