"""Wall-time benchmarks of the real numerical kernels.

Not a paper figure — these keep the physics kernels honest as code evolves:
per-sub-grid hydro flux evaluation, the FMM solve, ghost exchange, and a
full driver step.
"""

import numpy as np
import pytest

from repro.gravity import FmmSolver
from repro.hydro import IdealGasEOS
from repro.octree import Field

from tests.conftest import fill_gaussian, make_uniform_mesh
from tests.oracles.ghost import fill_all_ghosts
from tests.oracles.hydro_step import dudt_subgrid


@pytest.fixture(scope="module")
def hydro_mesh():
    eos = IdealGasEOS()
    mesh = make_uniform_mesh(levels=1)
    for leaf in mesh.leaves():
        x, y, z = leaf.cell_centers()
        rho = 1.0 + 0.1 * np.sin(np.pi * x)
        eint = np.full_like(rho, 2.5)
        leaf.subgrid.set_interior(Field.RHO, rho)
        leaf.subgrid.set_interior(Field.EGAS, eint)
        leaf.subgrid.set_interior(Field.TAU, eos.tau_from_eint(eint))
    fill_all_ghosts(mesh)
    return mesh, eos


def test_bench_hydro_flux_kernel(benchmark, hydro_mesh):
    mesh, eos = hydro_mesh
    leaf = mesh.leaves()[0]
    dudt, signal = benchmark(dudt_subgrid, leaf.subgrid, leaf.dx, eos)
    assert np.isfinite(dudt).all()
    assert signal > 0


def test_bench_ghost_exchange(benchmark, hydro_mesh):
    mesh, _ = hydro_mesh
    benchmark(fill_all_ghosts, mesh)


def test_bench_fmm_solve_level1(benchmark):
    mesh = make_uniform_mesh(levels=1)
    fill_gaussian(mesh)
    solver = FmmSolver()
    result = benchmark.pedantic(solver.solve, args=(mesh,), rounds=2, iterations=1)
    assert result.stats.p2p_pairs > 0


def test_bench_fmm_solve_level1_cold_plan(benchmark):
    """Every round rebuilds the traversal plan (the post-regrid cost)."""
    mesh = make_uniform_mesh(levels=1)
    fill_gaussian(mesh)
    solver = FmmSolver()

    def cold_solve():
        solver.invalidate_plan()
        return solver.solve(mesh)

    result = benchmark.pedantic(cold_solve, rounds=3, iterations=1)
    assert result.stats.p2p_pairs > 0


def test_bench_fmm_solve_level1_warm_plan(benchmark):
    """Steady-state solve between regrids: the cached plan is reused."""
    mesh = make_uniform_mesh(levels=1)
    fill_gaussian(mesh)
    solver = FmmSolver()
    solver.solve(mesh)  # build the plan outside the measured region
    result = benchmark.pedantic(solver.solve, args=(mesh,), rounds=5, iterations=1)
    assert result.stats.p2p_pairs > 0


def test_bench_driver_multi_step(benchmark):
    """Several gravity-coupled driver steps on a fixed topology — the case
    the plan cache targets (one plan build amortised over all steps)."""
    from repro.core.driver import OctoTigerSim

    eos = IdealGasEOS()

    def make_sim():
        mesh = make_uniform_mesh(levels=1)
        for leaf in mesh.leaves():
            x, y, z = leaf.cell_centers()
            r2 = x**2 + y**2 + z**2
            rho = 0.1 + np.exp(-r2 / 0.05)
            eint = np.full_like(rho, 2.5)
            leaf.subgrid.set_interior(Field.RHO, rho)
            leaf.subgrid.set_interior(Field.EGAS, eint)
            leaf.subgrid.set_interior(Field.TAU, eos.tau_from_eint(eint))
        mesh.restrict_all()
        fill_all_ghosts(mesh)
        return OctoTigerSim(mesh, eos=eos)

    def run_steps():
        return make_sim().run(3, dt=1e-5)

    records = benchmark.pedantic(run_steps, rounds=2, iterations=1)
    assert len(records) == 3


def test_bench_poisson_fft(benchmark):
    from repro.scf.poisson import FftPoissonSolver

    solver = FftPoissonSolver(48, 2.0 / 48)
    rho = np.zeros((48, 48, 48))
    rho[20:28, 20:28, 20:28] = 1.0
    phi = benchmark(solver.solve, rho)
    assert phi.min() < 0
