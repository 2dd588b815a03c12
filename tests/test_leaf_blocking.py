"""Leaf-blocked, fused hydro stage: ``RankStep.rhs`` runs every run in
sub-batches of ``RHS_BLOCK_CELLS`` cells on one shared scratch set, and each
sub-batch goes ``rhs → sources → update`` back to back unless it holds a
reflux target (docs/hydro_plan.md, "Leaf blocking").

Every kernel is elementwise along the leaf axis, so neither blocking nor
fusing may move a bit: the equivalence assertions are exact array equality
against the unfused order — one whole-run ``stacked_rhs_kernel`` call per
run, the reflux, one whole-run update — over the whole arena.  The scratch
bounds are computed sizes, so they repeat exactly.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import OctoTigerSim
from repro.hydro import HydroIntegrator, build_hydro_plan
from repro.hydro.integrator import _RK3_STAGES, rk3_ops
from repro.hydro.plan import (
    RHS_BLOCK_CELLS,
    STENCIL_RADIUS,
    RankStep,
    ScratchArena,
    stacked_resync_tau_kernel,
    stacked_rhs_kernel,
    stacked_source_kernel,
    stacked_update_kernel,
)
from repro.hydro.reflux import apply_flux_table
from repro.octree import NFIELDS
from repro.profiling import CounterRegistry
from repro.scenarios.blast import sedov_blast

from tests.oracles.ghost import fill_all_ghosts
from tests.test_hydro_plan import make_state_mesh

REPO = Path(__file__).resolve().parent.parent
#: The second RK3 stage's (a0, a1) and a dt: a stage whose update reads u0.
STAGE = (*_RK3_STAGES[1], 1e-3)


def two_rank_plan(mesh, run_leaves):
    """The plan giving rank 0 the first ``run_leaves`` slots."""
    keys = sorted(mesh.leaf_keys())
    assignment = {key: int(i >= run_leaves) for i, key in enumerate(keys)}
    return build_hydro_plan(mesh, nranks=2, assignment=assignment)


def rank_step_over(run_leaves, collect_fluxes):
    """Rank 0's step over one run of ``run_leaves`` leaves of a 64-leaf
    level-2 mesh (the other leaves belong to rank 1)."""
    mesh, eos = make_state_mesh(levels=2, mach=0.8)
    plan = two_rank_plan(mesh, run_leaves)
    fill_all_ghosts(mesh)
    rank = RankStep(
        plan, 0, eos, 0.0, CounterRegistry(),
        use_accel=False, collect_fluxes=collect_fluxes,
    )
    return plan, eos, rank


def stage_windows(plan):
    """Every run of every rank, with its stencil window and interior."""
    g, n = plan.ghost_width, plan.n
    s = slice(g, g + n)
    w = slice(g - STENCIL_RADIUS, g + n + STENCIL_RADIUS)
    stacked = plan.arena.reshape(-1, NFIELDS, plan.m, plan.m, plan.m)
    runs = [run for rank_runs in plan.runs for run in rank_runs]
    return [
        (run, stacked[run.lo : run.hi, :, w, w, w], stacked[run.lo : run.hi, :, s, s, s])
        for run in runs
    ]


def accel_stack(plan):
    """A smooth deterministic acceleration per slot."""
    n = plan.n
    out = np.empty((plan.n_leaves, 3, n, n, n))
    for run, _, _ in stage_windows(plan):
        out[run.lo : run.hi, 0] = -0.1 * run.x
        out[run.lo : run.hi, 1] = -0.1 * run.y
        out[run.lo : run.hi, 2] = 0.05
    return out


def unfused_step(plan, eos, dt, omega=0.0, accel=None):
    """One RK3 step in the order before fusion, over every rank's runs:
    per stage the ghost fill, one whole-run rhs + sources per run, the
    reflux, one whole-run update per run; then the tau resync."""
    n = plan.n
    windows = stage_windows(plan)
    u0 = [u_int.copy() for _, _, u_int in windows]
    dudt = [np.empty_like(u) for u in u0]
    flux = np.empty((plan.n_leaves, 3, 2, NFIELDS, n, n))
    owned = {
        key: d[j]
        for (run, _, _), d in zip(windows, dudt)
        for j, key in enumerate(plan.leaf_keys[run.lo : run.hi])
    }
    scratch = ScratchArena()
    for a0, a1 in _RK3_STAGES:
        for bundle in plan.ghosts.bundles.values():
            bundle.apply(plan.arena)
        for (run, u, u_int), d in zip(windows, dudt):
            stacked_rhs_kernel(u, run.dx, eos, d, scratch, faces=flux[run.lo : run.hi])
            if accel is not None or omega:
                stacked_source_kernel(
                    u_int, d, accel=None if accel is None else accel[run.lo : run.hi],
                    omega=omega, x=run.x, y=run.y,
                )
        apply_flux_table(plan.reflux_table, owned, flux, n)
        for (_, _, u_int), u, d in zip(windows, u0, dudt):
            stacked_update_kernel(u_int, u, d, a0, a1, dt, eos, scratch)
    for _, _, u_int in windows:
        stacked_resync_tau_kernel(u_int, eos)


def fused_step(plan, eos, dt, omega=0.0, accel=None, slices=None):
    """One RK3 step of the program (:func:`rk3_ops`) over one
    :class:`RankStep` per rank of ``plan``, ranks in turn per op.

    ``slices`` (one worker plan per rank, ``HydroPlan.from_slice``) stand
    in for ``plan`` rank by rank, as on the process backend: each rank
    steps its own plan and applies its own bundles."""
    n = plan.n
    collect_fluxes = plan.ghosts.face_counts["fine"] > 0
    flux = np.empty((plan.n_leaves, 3, 2, NFIELDS, n, n))
    per_rank = slices or [plan] * plan.nranks
    ranks = [
        RankStep(
            p, r, eos, omega, CounterRegistry(),
            use_accel=accel is not None, collect_fluxes=collect_fluxes,
            accel_view=accel, flux_view=flux, scratch=ScratchArena(),
        )
        for r, p in enumerate(per_rank)
    ]
    for op, *args in rk3_ops(dt, collect_fluxes, accel is not None):
        if op == "ghost":
            for p in slices or [plan]:
                for bundle in p.ghosts.bundles.values():
                    bundle.apply(p.arena)
        elif op != "accel":  # the stack is staged already
            for rank in ranks:
                getattr(rank, op)(*args)
    return ranks


def deferred_flags(ranks):
    return [dudt is not None for rank in ranks for batches in rank.batches
            for *_, dudt in batches]


class TestBlockedRhsEqualsWholeRun:
    #: The one reconstruction, as a single-valued parameter: it keeps these
    #: tests under their established ``[…-muscl]`` IDs.
    @pytest.mark.parametrize("scheme", ["muscl"])
    @pytest.mark.parametrize("collect_fluxes", [True, False])
    @pytest.mark.parametrize("run_leaves", [1, 15, 16, 17, 40])
    def test_dudt_and_faces_bitwise(self, run_leaves, collect_fluxes, scheme):
        plan, eos, rank = rank_step_over(run_leaves, collect_fluxes)
        [run] = rank.runs
        [batches] = rank.batches
        assert run.hi - run.lo == run_leaves
        per_batch = RHS_BLOCK_CELLS // plan.n**3
        assert [hi - lo for lo, hi, *_ in batches] == (
            [per_batch] * (run_leaves // per_batch)
            + [run_leaves % per_batch] * bool(run_leaves % per_batch)
        )
        # No coarse-fine face, no reflux target: every batch is fused.
        assert deferred_flags([rank]) == [False] * len(batches)

        # The unfused order: one whole-run rhs, then one whole-run update.
        [(_, window, u_int)] = [w for w in stage_windows(plan) if w[0] == run]
        dudt = np.empty_like(rank.u0[0])
        faces = np.full((run_leaves, 3, 2, NFIELDS, plan.n, plan.n), np.nan)
        stacked_rhs_kernel(
            window, run.dx, eos, dudt, ScratchArena(),
            faces=faces if collect_fluxes else None,
        )
        # Per batch, on one shared arena, the kernel gives the whole run's
        # dudt rows bit for bit.
        scratch = ScratchArena()
        for lo, hi, u, *_ in batches:
            part = np.empty((hi - lo,) + dudt.shape[1:])
            stacked_rhs_kernel(u, run.dx, eos, part, scratch)
            assert np.array_equal(part, dudt[lo - run.lo : hi - run.lo])
        expected = u_int.copy()
        stacked_update_kernel(expected, u_int.copy(), dudt, *STAGE, eos, ScratchArena())

        if collect_fluxes:
            rank.flux_view[...] = np.nan
        rank.begin()
        rank.rhs(collect_fluxes, False, *STAGE)
        assert np.array_equal(rank.u_int[0], expected)
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
        [(lo, hi, *_)] = rank.batches[0]
        assert hi - lo == 8


class TestFusedSweepEqualsUnfused:
    """The whole arena after a step — interiors and ghost bands — equals
    the unfused order's, bit for bit."""

    def test_blast_64_leaves(self):
        fused, twin = sedov_blast(levels=2), sedov_blast(levels=2)
        integ = HydroIntegrator(fused.mesh, fused.eos)
        plan = integ.plan_for()
        reference = build_hydro_plan(twin.mesh)
        for _ in range(2):
            dt = integ.timestep()
            integ.step(dt)
            unfused_step(reference, twin.eos, dt)
            assert np.array_equal(plan.arena, reference.arena)
        assert plan.reflux_table == []

    def test_refined_window_defers_reflux_targets(self):
        """Coarse-fine faces: the batches holding a coarse face's leaf wait
        for the reflux; the rest update inside the rhs.  Sources on."""
        mesh_kw = dict(levels=2, refine_keys=(27, 27), mach=0.8)
        (mesh, eos), (twin, _) = make_state_mesh(**mesh_kw), make_state_mesh(**mesh_kw)
        plan, reference = build_hydro_plan(mesh), build_hydro_plan(twin)
        assert plan.reflux_table
        accel = accel_stack(plan)
        for _ in range(2):
            ranks = fused_step(plan, eos, 1e-3, omega=0.3, accel=accel)
            unfused_step(reference, eos, 1e-3, omega=0.3, accel=accel)
            assert np.array_equal(plan.arena, reference.arena)
        flags = deferred_flags(ranks)
        assert any(flags) and not all(flags)

    @pytest.mark.parametrize("refined", [False, True], ids=["uniform", "refined"])
    @pytest.mark.parametrize("run_leaves", [1, 15, 16, 17, 40])
    def test_two_ranks(self, run_leaves, refined):
        mesh_kw = dict(levels=2, mach=0.8, refine_keys=(27,) if refined else ())
        (mesh, eos), (twin, _) = make_state_mesh(**mesh_kw), make_state_mesh(**mesh_kw)
        plan, reference = two_rank_plan(mesh, run_leaves), two_rank_plan(twin, run_leaves)
        assert plan.runs[0][0].hi == run_leaves
        ranks = fused_step(plan, eos, 1e-3)
        unfused_step(reference, eos, 1e-3)
        assert np.array_equal(plan.arena, reference.arena)
        assert any(deferred_flags(ranks)) == refined


class TestScratchBound:
    def test_blast_level2(self):
        scenario = sedov_blast(levels=2)
        sim = OctoTigerSim(scenario.mesh, eos=scenario.eos, gravity=False)
        for _ in range(3):
            sim.step()
        scratch = sim.integrator.plan_for().scratch.nbytes()
        # u0 (64 B/cell) + one 8-leaf batch's dudt, update and rhs sets.
        assert scratch / scenario.mesh.n_cells() == 284.453125  # 680.4 unfused

    def test_dwd_level2_with_one_refined_window(self):
        from repro.scenarios.dwd import dwd_scenario

        scenario = dwd_scenario(level=2, scf_grid=32)
        mesh = scenario.mesh
        # The e2e regrid workload's shape: two of the 64 level-2 leaves
        # refined, i.e. runs of 62 + 16 leaves (62 = 7 x 8 + 6: the
        # remainder batch takes a prefix of the full batch's set).
        for key in sorted(mesh.leaf_keys())[27:29]:
            mesh.refine(key)
        mesh.restrict_all()
        sim = OctoTigerSim(mesh, eos=scenario.eos, omega=scenario.omega, gravity=False)
        for _ in range(3):
            sim.step()
        plan = sim.integrator.plan_for()
        assert [run.hi - run.lo for run in plan.runs[0]] == [62, 16]
        # + the flux stack (48 B/cell) and the deferred batches' dudt.
        per_cell = plan.scratch.nbytes() / mesh.n_cells()
        assert per_cell == pytest.approx(321.9130608974359, rel=1e-15)  # 967.3 unfused

    def test_remainder_batch_holds_no_second_set(self):
        """A run ending in a shorter batch: the remainder reuses a prefix
        of the full batch's buffers, so the arena holds exactly one set."""
        plan, eos, rank = rank_step_over(17, collect_fluxes=False)
        [batches] = rank.batches
        assert [hi - lo for lo, hi, *_ in batches] == [8, 8, 1]
        full, both = ScratchArena(), ScratchArena()
        for lo, hi, u, *_ in batches[:1]:
            stacked_rhs_kernel(u, 1.0, eos, np.empty((hi - lo, NFIELDS, 8, 8, 8)), full)
        for lo, hi, u, *_ in (batches[0], batches[2]):
            stacked_rhs_kernel(u, 1.0, eos, np.empty((hi - lo, NFIELDS, 8, 8, 8)), both)
        assert both.nbytes() == full.nbytes() > 0
        arena = ScratchArena()
        a = arena.get("x", (16, 4))
        b = arena.get("x", (14, 4))
        assert np.shares_memory(a, b) and arena.nbytes() == 16 * 4 * 8
        assert arena.get("x", (20, 4)).shape == (20, 4)
        assert arena.nbytes() == 20 * 4 * 8


class TestPlanOwners:
    def test_owners_close_against_the_build(self):
        """``HydroPlan.nbytes()`` accounts for what a build retains: the
        second plan over an adopted mesh keeps its own arena, bundles,
        runs and pack buffers, and nothing else of size."""
        import tracemalloc

        mesh = sedov_blast(levels=2).mesh
        first = build_hydro_plan(mesh, nranks=2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            plan = build_hydro_plan(mesh, nranks=2)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        owners = plan.nbytes()
        assert sorted(owners) == ["arena", "bundles", "reflux", "runs", "scratch"]
        assert owners["arena"] == first.arena.nbytes
        assert sum(owners.values()) == pytest.approx(retained, rel=0.05)

    def test_face_traces_per_cell(self):
        """Traces keep leaf-local offsets only, as uint16: 2 + 2 bytes per
        traced ghost element (384 B/cell as intp with a divmod memo)."""
        mesh = sedov_blast(levels=2).mesh
        integ = HydroIntegrator(mesh)
        integ.plan_for()
        assert integ.plans.traces.nbytes() / mesh.n_cells() == 48.0


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
        # One update per fused batch and stage, plus one finish per step.
        assert registry.count("hydro.update") == steps * (3 * batches + 1)


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
