"""Leaf-blocked hydro rhs: ``RankStep.rhs`` runs every run in sub-batches of
``RHS_BLOCK_CELLS`` cells on one shared scratch set (docs/hydro_plan.md,
"Leaf blocking").

Every kernel is elementwise along the leaf axis, so blocking may not move a
bit: the equivalence assertions are exact array equality against one
whole-run ``stacked_rhs_kernel`` call.  The scratch bounds are computed
sizes, so they repeat exactly.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import OctoTigerSim
from repro.hydro import build_hydro_plan
from repro.hydro.plan import (
    RHS_BLOCK_CELLS,
    STENCIL_RADIUS,
    RankStep,
    ScratchArena,
    stacked_rhs_kernel,
)
from repro.octree import NFIELDS
from repro.profiling import CounterRegistry
from repro.scenarios.blast import sedov_blast

from tests.oracles.ghost import fill_all_ghosts
from tests.test_hydro_plan import make_state_mesh

REPO = Path(__file__).resolve().parent.parent


def rank_step_over(run_leaves, collect_fluxes):
    """Rank 0's step over one run of ``run_leaves`` leaves of a 64-leaf
    level-2 mesh (the other leaves belong to rank 1)."""
    mesh, eos = make_state_mesh(levels=2, mach=0.8)
    keys = sorted(mesh.leaf_keys())
    assignment = {key: int(i >= run_leaves) for i, key in enumerate(keys)}
    plan = build_hydro_plan(mesh, nranks=2, assignment=assignment)
    fill_all_ghosts(mesh)
    rank = RankStep(
        plan, 0, eos, 0.0, CounterRegistry(),
        use_accel=False, collect_fluxes=collect_fluxes,
    )
    return plan, eos, rank


class TestBlockedRhsEqualsWholeRun:
    #: The one reconstruction, as a single-valued parameter: it keeps these
    #: tests under their established ``[…-muscl]`` IDs.
    @pytest.mark.parametrize("scheme", ["muscl"])
    @pytest.mark.parametrize("collect_fluxes", [True, False])
    @pytest.mark.parametrize("run_leaves", [1, 15, 16, 17, 40])
    def test_dudt_and_faces_bitwise(self, run_leaves, collect_fluxes, scheme):
        plan, eos, rank = rank_step_over(run_leaves, collect_fluxes)
        [run] = rank.runs
        assert run.hi - run.lo == run_leaves
        per_batch = RHS_BLOCK_CELLS // plan.n**3
        assert [len(dudt) for _, dudt, _ in rank.batches[0]] == (
            [per_batch] * (run_leaves // per_batch)
            + [run_leaves % per_batch] * bool(run_leaves % per_batch)
        )
        if collect_fluxes:
            rank.flux_view[...] = np.nan
        rank.rhs(collect_fluxes, False)

        w = slice(plan.ghost_width - STENCIL_RADIUS, plan.ghost_width + plan.n + STENCIL_RADIUS)
        stacked = plan.arena.reshape(-1, NFIELDS, plan.m, plan.m, plan.m)
        dudt = np.empty_like(rank.dudt[0])
        faces = np.full((run_leaves, 3, 2, NFIELDS, plan.n, plan.n), np.nan)
        stacked_rhs_kernel(
            stacked[run.lo : run.hi, :, w, w, w], run.dx, eos, dudt,
            faces=faces if collect_fluxes else None,
            scratch=ScratchArena(),
        )
        assert np.array_equal(rank.dudt[0], dudt)
        if collect_fluxes:
            assert np.isfinite(faces).all()
            assert np.array_equal(rank.flux_view[run.lo : run.hi], faces)
            # Nobody else's rows of the whole-mesh flux stack were touched.
            assert np.isnan(rank.flux_view[run.hi :]).all()
        else:
            assert rank.flux_view is None

    def test_level1_mesh_runs_as_one_batch(self):
        mesh, eos = make_state_mesh(levels=1)
        plan = build_hydro_plan(mesh)
        rank = RankStep(plan, 0, eos, 0.0, CounterRegistry())
        assert [len(batches) for batches in rank.batches] == [1]
        assert len(rank.batches[0][0][1]) == 8


class TestScratchBound:
    def test_blast_level2(self):
        scenario = sedov_blast(levels=2)
        sim = OctoTigerSim(scenario.mesh, eos=scenario.eos, gravity=False)
        for _ in range(3):
            sim.step()
        scratch = sim.integrator.plan_for().scratch.nbytes()
        assert scratch / scenario.mesh.n_cells() <= 700  # 1 953.5 unblocked

    def test_dwd_level2_with_one_refined_window(self):
        from repro.scenarios.dwd import dwd_scenario

        scenario = dwd_scenario(level=2, scf_grid=32)
        mesh = scenario.mesh
        # The e2e regrid workload's shape: two of the 64 level-2 leaves
        # refined, i.e. runs of 62 + 16 leaves (62 = 3 x 16 + 14, so the
        # remainder batch allocates a second, smaller shape set).
        for key in sorted(mesh.leaf_keys())[27:29]:
            mesh.refine(key)
        mesh.restrict_all()
        sim = OctoTigerSim(mesh, eos=scenario.eos, omega=scenario.omega, gravity=False)
        for _ in range(3):
            sim.step()
        plan = sim.integrator.plan_for()
        assert [run.hi - run.lo for run in plan.runs[0]] == [62, 16]
        assert plan.scratch.nbytes() / mesh.n_cells() <= 1000  # 2 028.5 unblocked


class TestPhaseTimers:
    def test_six_timers_one_primitives_entry_per_batch_per_stage(self):
        scenario = sedov_blast(levels=2)
        sim = OctoTigerSim(scenario.mesh, eos=scenario.eos, gravity=False)
        registry = sim.integrator.registry = CounterRegistry()
        steps = 3
        for _ in range(steps):
            sim.step()
        for name in (
            "hydro.ghost", "hydro.reconstruct", "hydro.riemann", "hydro.update",
            "hydro.primitives", "hydro.divergence",
        ):
            assert registry.count(name) >= 1, name
        batches = 64 * 8**3 // RHS_BLOCK_CELLS
        assert registry.count("hydro.primitives") == steps * 3 * batches
        for name in ("hydro.reconstruct", "hydro.riemann", "hydro.divergence"):
            assert registry.count(name) == steps * 3 * batches * 3, name


class TestStartup:
    def test_importing_the_driver_does_not_load_scipy(self):
        code = (
            "import repro.core.driver, sys; "
            "bad = sorted(m for m in sys.modules if m.startswith('scipy')); "
            "assert not bad, bad[:5]"
        )
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
