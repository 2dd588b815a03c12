"""Ablations beyond the paper's figures (DESIGN.md section 4).

* FMM expansion order: accuracy vs cost (order 1/2/3),
* sub-grid size N: task granularity vs overhead,
* GPU kernel aggregation: launches fused per device launch (paper ref. [9]).
"""

import numpy as np
import pytest

from repro.distsim import RunConfig, simulate_step
from repro.gravity import FmmSolver, direct_sum
from repro.machines import PERLMUTTER, FUGAKU
from repro.scenarios import rotating_star
from repro.scenarios.spec import ScenarioSpec

from benchmarks.conftest import emit, format_series
from tests.conftest import fill_gaussian, make_uniform_mesh


def test_ablation_fmm_order(benchmark):
    """Accuracy of the far field by expansion order, against direct sums."""
    mesh = make_uniform_mesh(levels=2)
    fill_gaussian(mesh)
    _, acc_d = direct_sum(mesh)
    den = np.sum(acc_d**2)

    def solve_all():
        out = {}
        for order in (1, 2, 3):
            result = FmmSolver(order=order).solve(mesh)
            num = np.sum((result.accel_slots - acc_d) ** 2)
            out[order] = float(np.sqrt(num / den))
        return out

    errors = benchmark.pedantic(solve_all, rounds=1, iterations=1)
    rows = [(order, f"{err:.3e}") for order, err in errors.items()]
    emit("ablation_fmm_order", format_series("order  accel_rel_error", rows))
    assert errors[3] < 1e-2
    assert errors[2] <= errors[1] * 1.05


def test_ablation_subgrid_size(benchmark):
    """Performance-model sensitivity to the sub-grid edge length N.

    Total cells held constant: smaller sub-grids mean more tasks and more
    ghost overhead per cell; larger ones coarsen the parallelism.
    """
    cells = 2_500_000

    def run():
        rows = []
        for n in (4, 8, 16):
            spec = ScenarioSpec(
                name=f"n{n}",
                n_subgrids=cells // n**3,
                max_level=5,
                subgrid_n=n,
            )
            r = simulate_step(spec, RunConfig(machine=FUGAKU, nodes=64))
            rows.append((n, f"{r.cells_per_second:.3e}", f"{r.comm_s:.2e}"))
        return rows

    rows = benchmark(run)
    emit("ablation_subgrid_size", format_series("N  cells/s@64nodes  comm_s", rows))
    # N = 8 (Octo-Tiger's choice) should beat tiny sub-grids.
    rates = {row[0]: float(row[1]) for row in rows}
    assert rates[8] > rates[4]


def test_ablation_gpu_aggregation(benchmark):
    """Work aggregation (paper ref. [9]): fusing small kernel launches."""
    spec = rotating_star(level=6, build_mesh=False).spec

    def run():
        rows = []
        for agg in (1, 4, 16, 64):
            r = simulate_step(
                spec,
                RunConfig(machine=PERLMUTTER, nodes=16, use_gpus=True, gpu_aggregation=agg),
            )
            rows.append((agg, f"{r.cells_per_second:.3e}"))
        return rows

    rows = benchmark(run)
    emit("ablation_gpu_aggregation", format_series("aggregation  cells/s", rows))
    rates = [float(r[1]) for r in rows]
    # More aggregation -> fewer launch latencies -> faster, saturating.
    assert rates[-1] >= rates[0]
    assert rates[1] >= rates[0]
