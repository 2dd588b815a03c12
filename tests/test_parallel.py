"""The process backend: real OS parallelism with the DES engine as oracle.

Covers the ISSUE-6 satellite contracts:

* typed construction validation on :class:`ParallelEngine` (the
  ``Engine.post`` NaN-guard posture applied to timeouts and nprocs);
* the shm lifecycle guard — a worker crash (the ``FaultSpec`` crash fate
  made real) leaves no ``/dev/shm`` segment behind;
* backend equivalence — blast and DWD smoke runs parametrized over
  backends with bit-identical conserved sums and final fields, plus a
  hypothesis refine/derefine sweep proving plan invalidation propagates
  to the worker pool;
* per-worker ``hydro.*`` timers aggregated (max + mean) into the driver's
  counter registry;
* lean workers — the pool forks before the plan exists, so a worker's
  peak RSS stays near the parent's before the first step, and a plan
  built from a pickled slice steps like the full plan.
"""

import math
import os
import pickle
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.amt.parallel import (
    EngineNotStartedError,
    ParallelEngine,
    WorkerCrashError,
    WorkerError,
    WorkerTimeoutError,
)
from repro.amt.shm import ShmArena, live_segments
from repro.core.crosscheck import (
    clone_mesh,
    conserved_sums,
    crosscheck_hydro,
)
from repro.hydro import HydroIntegrator, build_hydro_plan
from repro.hydro.plan import HydroPlan
from repro.profiling.apex import CounterRegistry
from repro.scenarios.blast import sedov_blast
from tests.test_leaf_blocking import fused_step
from tests.test_hydro_plan import (
    _apply_mutation,
    _mutation_sequences,
    assert_meshes_identical,
    fake_gravity,
    make_state_mesh,
)

pytestmark = pytest.mark.timeout(300)


def _echo_factory(rank, registry, link):
    def handler(command):
        if command == "boom":
            raise RuntimeError("boom from worker")
        if command == "rank":
            return rank
        if command == "time":
            with registry.timer("worker.phase"):
                pass
            return None
        if command == "stale":
            # Rank 0 fails at once; rank 1 replies after the parent has
            # already seen the failure.
            if rank == 0:
                raise RuntimeError("early boom")
            time.sleep(0.3)
            return ("stale", rank)
        if command == "sleep":
            time.sleep(5.0)
        return command

    return handler


class TestEngineValidation:
    """Satellite 1: typed rejection, mirroring Engine.post's NaN guard."""

    def test_non_integral_nprocs_typeerror(self):
        with pytest.raises(TypeError, match="nprocs"):
            ParallelEngine(2.0)
        with pytest.raises(TypeError, match="nprocs"):
            ParallelEngine(True)

    def test_negative_nprocs_valueerror(self):
        with pytest.raises(ValueError, match="nprocs"):
            ParallelEngine(-1)
        with pytest.raises(ValueError, match="nprocs"):
            ParallelEngine(0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_timeout_valueerror(self, bad):
        with pytest.raises(ValueError, match="non-finite timeout"):
            ParallelEngine(1, timeout=bad)

    def test_non_positive_timeout_valueerror(self):
        with pytest.raises(ValueError, match="timeout"):
            ParallelEngine(1, timeout=0.0)

    def test_non_real_timeout_typeerror(self):
        with pytest.raises(TypeError, match="timeout"):
            ParallelEngine(1, timeout="soon")


class TestEngineRounds:
    def test_round_trip_and_worker_identity(self):
        with ParallelEngine(3) as engine:
            engine.start(_echo_factory)
            assert engine.round("rank") == [0, 1, 2]
            assert engine.round({"x": 1}) == [{"x": 1}] * 3

    def test_worker_exception_carries_remote_traceback(self):
        with ParallelEngine(2) as engine:
            engine.start(_echo_factory)
            with pytest.raises(WorkerError, match="boom from worker") as exc:
                engine.round("boom")
            assert "RuntimeError" in exc.value.remote_traceback
            # The pool survives a handler exception.
            assert engine.round("rank") == [0, 1]

    def test_crash_fate_raises_typed_crash_error(self):
        from repro.resilience import UnrecoverableFault

        with ParallelEngine(2) as engine:
            engine.start(_echo_factory)
            engine.crash(1)
            with pytest.raises(WorkerCrashError) as exc:
                engine.round("rank")
            assert exc.value.ranks == (1,)
            assert isinstance(exc.value, UnrecoverableFault)

    def test_round_after_early_end_raises_not_stale(self):
        # A raise in a round with on_note stops the pool; the late reply of
        # rank 1 must not be read as the next round's answer.
        with ParallelEngine(2, timeout=10.0) as engine:
            engine.start(_echo_factory)
            with pytest.raises(WorkerError, match="early boom") as err:
                engine.round("stale", on_note=lambda rank, tag, payload: ())
            assert err.value.rank == 0
            assert not engine.started
            time.sleep(0.5)  # rank 1's reply would be in the pipe by now
            with pytest.raises(EngineNotStartedError):
                engine.round("rank")

    def test_round_on_unstarted_engine_raises(self):
        engine = ParallelEngine(2)
        with pytest.raises(EngineNotStartedError):
            engine.round("rank")

    def test_one_deadline_per_round(self):
        # Two stalled workers share the round's one deadline: the timeout
        # names both ranks after ~1 s, not one timeout per worker in turn.
        with ParallelEngine(2, timeout=1.0) as engine:
            engine.start(_echo_factory)
            t0 = time.monotonic()
            with pytest.raises(WorkerTimeoutError) as err:
                engine.round("sleep")
            elapsed = time.monotonic() - t0
        assert err.value.ranks == (0, 1)
        assert elapsed < 1.5

    def test_harvest_timers_max_and_mean(self):
        registry = CounterRegistry()
        with ParallelEngine(2) as engine:
            engine.start(_echo_factory)
            engine.round("time")
            maxima = engine.harvest_timers(registry)
        assert "worker.phase" in maxima
        assert registry.count("worker.phase") == 1
        assert registry.count("worker.phase.workers_mean") == 1
        mean = registry.get("worker.phase.workers_mean").total
        assert mean <= maxima["worker.phase"]


class TestShmLifecycle:
    """Satellite 2: /dev/shm segments cannot leak."""

    def test_context_manager_unlinks(self):
        with ShmArena(1024) as arena:
            name = arena.name
            assert name in live_segments()
            view = arena.ndarray((128,))
            view[:] = 7.0
            assert view.sum() == 7.0 * 128
        assert name not in live_segments()
        assert not os.path.exists(f"/dev/shm/{name}")

    def test_unlink_idempotent(self):
        arena = ShmArena(64)
        assert arena.unlink() is True
        assert arena.unlink() is False

    def test_double_close_idempotent(self):
        """close() unmaps once and is a no-op afterwards; the segment
        itself survives until unlink."""
        arena = ShmArena(256)
        view = arena.ndarray((4,))
        view[:] = 1.0
        del view
        arena.close()
        arena.close()  # second close must not raise or re-close
        assert arena.name in live_segments()  # still owned, not unlinked
        with pytest.raises(ValueError):
            arena.ndarray((4,))
        assert arena.unlink() is True
        assert not os.path.exists(f"/dev/shm/{arena.name}")

    def test_sigterm_worker_leaves_no_segments(self):
        """A SIGTERM'd worker dies through the OS, not through Python
        cleanup — it must neither unlink the parent's segments on the way
        out nor leave any of its own behind after the parent closes."""
        import signal

        before = set(os.listdir("/dev/shm"))
        mesh, eos = make_state_mesh(levels=1, refine_keys=(0,))
        ex = HydroIntegrator(mesh, eos, backend="process", nprocs=2).executor()
        ex.ensure()
        victim = ex.engine.localities[1].process
        os.kill(victim.pid, signal.SIGTERM)
        victim.join(timeout=10)
        assert not victim.is_alive()
        # The parent's arenas survive the worker's death untouched.
        assert live_segments()
        with pytest.raises(WorkerCrashError):
            ex.step(1e-4)
        ex.close()
        assert live_segments() == ()
        assert set(os.listdir("/dev/shm")) <= before

    def test_bad_nbytes_typed_errors(self):
        with pytest.raises(TypeError):
            ShmArena(12.5)
        with pytest.raises(TypeError):
            ShmArena(True)
        with pytest.raises(ValueError):
            ShmArena(0)

    def test_worker_crash_leaves_no_segments(self):
        """The FaultSpec crash fate made real: kill a worker mid-run, let
        the typed error propagate, and verify every segment is gone."""
        before = set(os.listdir("/dev/shm"))
        mesh, eos = make_state_mesh(levels=1, refine_keys=(0,))
        ex = HydroIntegrator(mesh, eos, backend="process", nprocs=2).executor()
        ex.ensure()
        assert live_segments()  # arenas exist while the pool runs
        ex.engine.crash(0)
        with pytest.raises(WorkerCrashError):
            ex.step(1e-4)
        ex.close()
        assert live_segments() == ()
        assert set(os.listdir("/dev/shm")) <= before

    def test_driver_crash_fault_cleans_up(self):
        """A crashed step driven through the integrator tears the pool
        and its arenas down on the way out — no explicit close needed."""
        mesh, eos = make_state_mesh(levels=1)
        integ = HydroIntegrator(mesh, eos, backend="process", nprocs=2)
        integ.executor().ensure()
        integ.executor().engine.crash(1)
        with pytest.raises(WorkerCrashError):
            integ.step(1e-4)
        assert live_segments() == ()


def _integrator_pair(backend, mesh_kw, nprocs=2, **kw):
    mesh_a, eos = make_state_mesh(**mesh_kw)
    mesh_b, _ = make_state_mesh(**mesh_kw)
    a = HydroIntegrator(mesh_a, eos, **kw)
    b = HydroIntegrator(mesh_b, eos, backend=backend, nprocs=nprocs, **kw)
    return a, b, mesh_a, mesh_b


class TestBackendEquivalence:
    """Satellite 3: blast + DWD smoke over backend=["des", "process"]."""

    @pytest.mark.parametrize("backend", ["des", "process"])
    def test_blast_smoke_conserved_sums_and_fields(self, backend):
        from repro.scenarios.blast import sedov_blast

        ref = sedov_blast(levels=1)
        run = sedov_blast(levels=1)
        serial = HydroIntegrator(ref.mesh, ref.eos)
        if backend == "des":
            other = HydroIntegrator(run.mesh, run.eos)
        else:
            other = HydroIntegrator(
                run.mesh, run.eos, backend="process", nprocs=2
            )
        try:
            for _ in range(2):
                dt = serial.timestep()
                serial.step(dt)
                other.step(dt)
        finally:
            other.close()
        assert np.array_equal(conserved_sums(ref.mesh), conserved_sums(run.mesh))
        assert_meshes_identical(ref.mesh, run.mesh)

    @pytest.mark.parametrize("backend", ["des", "process"])
    def test_dwd_smoke_with_gravity(self, backend):
        from repro.gravity.fmm import FmmSolver
        from repro.scenarios.dwd import dwd_scenario

        ref = dwd_scenario(level=1, scf_grid=24)
        run = dwd_scenario(level=1, scf_grid=24)
        serial = HydroIntegrator(
            ref.mesh, ref.eos, omega=ref.omega,
            gravity=FmmSolver(empty_mass_threshold=1e-12),
        )
        gravity_cb = FmmSolver(empty_mass_threshold=1e-12)
        if backend == "des":
            other = HydroIntegrator(
                run.mesh, run.eos, omega=run.omega, gravity=gravity_cb
            )
        else:
            other = HydroIntegrator(
                run.mesh, run.eos, omega=run.omega, gravity=gravity_cb,
                backend="process", nprocs=2,
            )
        try:
            for _ in range(2):
                dt = serial.timestep()
                serial.step(dt)
                other.step(dt)
        finally:
            other.close()
        assert np.array_equal(conserved_sums(ref.mesh), conserved_sums(run.mesh))
        assert_meshes_identical(ref.mesh, run.mesh)

    def test_pipe_wire_equivalent(self):
        """Three ranks on the refined mesh are bit-identical to serial, and
        the executor's exchange accounting is the plan's closed form: one
        message per remote bundle per RK stage, carrying its payload.  (The
        pipe here is the control pipe: the data moves through shm.)"""
        a, b, mesh_a, mesh_b = _integrator_pair(
            "process", dict(levels=1, refine_keys=(0, 3)), nprocs=3
        )
        try:
            for _ in range(2):
                dt = a.timestep()
                a.step(dt)
                b.step(dt)
            ghosts = b._executor.plan.ghosts
            messages = b._executor.payload_messages
            payload_bytes = b._executor.payload_bytes
            assert ghosts.remote_pairs
            assert messages == 3 * len(ghosts.remote_pairs)
            assert payload_bytes == 3 * ghosts.remote_payload_bytes
        finally:
            b.close()
        assert_meshes_identical(mesh_a, mesh_b)

    def test_fmm_process_backend_bit_identical(self):
        """A process-backend run with FMM gravity forks exactly ``nprocs``
        workers (gravity has no pool of its own: it is solved in the
        parent, under the parent's own ``fmm.*`` timers) and stays
        bit-identical to the DES run."""
        import multiprocessing

        from repro.core import OctoTigerSim
        from repro.scenarios.dwd import dwd_scenario

        ref = dwd_scenario(level=1, scf_grid=24)
        run = dwd_scenario(level=1, scf_grid=24)
        des = OctoTigerSim(ref.mesh, eos=ref.eos, omega=ref.omega)
        par = OctoTigerSim(
            run.mesh, eos=run.eos, omega=run.omega, gravity=True,
            backend="process", nprocs=2,
        )
        before = set(multiprocessing.active_children())
        try:
            for step in range(2):
                dt = des.integrator.timestep()
                des.step(dt)
                par.step(dt)
                if step == 0:
                    forked = set(multiprocessing.active_children()) - before
                    assert len(forked) == 2
                    assert all(child.is_alive() for child in forked)
        finally:
            par.close()
        assert np.array_equal(conserved_sums(ref.mesh), conserved_sums(run.mesh))
        assert_meshes_identical(ref.mesh, run.mesh)
        solves = par.counters.count("fmm.m2l")
        assert solves == des.counters.count("fmm.m2l") > 0
        assert "fmm.m2l.workers_mean" not in par.counters.names()

    def test_timers_aggregated_into_registry(self):
        mesh, eos = make_state_mesh(levels=1)
        integ = HydroIntegrator(mesh, eos, backend="process", nprocs=2)
        integ.registry = CounterRegistry()
        try:
            integ.step(1e-4)
        finally:
            integ.close()
        for name in ("hydro.ghost", "hydro.riemann", "hydro.update"):
            assert integ.registry.count(name) >= 1, name
            assert integ.registry.count(f"{name}.workers_mean") >= 1, name
            peak = integ.registry.get(name).maximum
            mean = integ.registry.get(f"{name}.workers_mean").maximum
            assert mean <= peak


class TestRegridPropagation:
    """Satellite 3 (hypothesis): plan invalidation reaches the workers."""

    @given(ops=_mutation_sequences(), nprocs=st.sampled_from([2, 3]))
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_process_backend_tracks_topology_changes(self, ops, nprocs):
        mesh_a, eos = make_state_mesh(levels=1, n=4)
        mesh_b, _ = make_state_mesh(levels=1, n=4)
        a = HydroIntegrator(mesh_a, eos)
        b = HydroIntegrator(mesh_b, eos, backend="process", nprocs=nprocs)
        try:
            dt = a.timestep()
            a.step(dt)
            b.step(dt)
            for op, pick in ops:
                changed = _apply_mutation(mesh_a, op, pick)
                assert _apply_mutation(mesh_b, op, pick) == changed
                dt = a.timestep()
                a.step(dt)
                b.step(dt)
                assert_meshes_identical(mesh_a, mesh_b)
        finally:
            b.close()
        assert live_segments() == ()


class TestCrosscheckHarness:
    def test_crosscheck_passes_with_sources(self):
        mesh, eos = make_state_mesh(levels=1, refine_keys=(1,))
        result = crosscheck_hydro(
            mesh, steps=2, nprocs=2, eos=eos, omega=0.3,
            gravity=lambda: fake_gravity,
        )
        assert result.ok
        assert result.leaves > 0

    def test_crosscheck_detects_divergence(self):
        from repro.core.crosscheck import BackendMismatch, assert_identical

        mesh_a, _ = make_state_mesh(levels=1)
        mesh_b = clone_mesh(mesh_a)
        leaf = mesh_b.leaves()[0]
        leaf.subgrid.data[0] += 1e-9
        with pytest.raises(BackendMismatch):
            assert_identical(mesh_a, mesh_b)

    def test_signed_zero_divergence_detected(self):
        """A resting cell whose momentum turned ``-0.0`` on one backend has
        diverged: ``==`` calls the fields equal, their bits are not."""
        from repro.core.crosscheck import BackendMismatch, assert_identical
        from repro.octree.fields import Field
        from repro.scenarios.blast import sedov_blast

        mesh_a = sedov_blast(levels=1).mesh
        mesh_b = clone_mesh(mesh_a)
        cell = (Field.SX, 2, 2, 2)
        data = mesh_b.leaves()[0].subgrid.data
        assert data[cell] == 0.0 and not np.signbit(data[cell])
        data[cell] = -0.0
        with pytest.raises(BackendMismatch):
            assert_identical(mesh_a, mesh_b)

    def test_same_nan_on_both_sides_is_identical(self):
        """The same NaN in both meshes is the same bits, not a mismatch."""
        from repro.core.crosscheck import assert_identical
        from repro.octree.fields import Field
        from repro.scenarios.blast import sedov_blast

        mesh_a = sedov_blast(levels=1).mesh
        mesh_a.leaves()[0].subgrid.data[Field.TAU, 2, 2, 2] = np.nan
        mesh_b = clone_mesh(mesh_a)
        assert_identical(mesh_a, mesh_b)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_crosscheck_needs_at_least_one_step(self, steps):
        """Zero steps would compare nothing and report bit identity."""
        mesh, eos = make_state_mesh(levels=1)
        with pytest.raises(ValueError, match="steps must be at least 1"):
            crosscheck_hydro(mesh, steps=steps, eos=eos)
        assert live_segments() == ()

    def test_clone_mesh_is_private_storage(self):
        mesh, _ = make_state_mesh(levels=1, refine_keys=(0,))
        clone = clone_mesh(mesh)
        assert_meshes_identical(mesh, clone)
        clone.leaves()[0].subgrid.data[0] += 1.0
        with pytest.raises(AssertionError):
            assert_meshes_identical(mesh, clone)


class TestDistributedDriverBackend:
    def test_process_step_matches_des_fields(self):
        """The DES task-graph driver and the process backend agree bit for
        bit on an adaptive mesh (reflux on)."""
        from repro.core.distributed import DistributedHydroDriver

        mesh_a, eos = make_state_mesh(levels=1, refine_keys=(0,))
        mesh_b, _ = make_state_mesh(levels=1, refine_keys=(0,))
        des = DistributedHydroDriver(mesh_a, eos=eos, omega=0.2)
        par = HydroIntegrator(
            mesh_b, eos, omega=0.2, backend="process", nprocs=2
        )
        try:
            des.step(1e-4)
            par.step(1e-4)
            assert par.executor().engine.control_messages > 0
        finally:
            par.close()
        assert_meshes_identical(mesh_a, mesh_b)

    def test_invalid_backend_rejected(self):
        mesh, eos = make_state_mesh(levels=0)
        with pytest.raises(ValueError, match="backend"):
            HydroIntegrator(mesh, eos, backend="threads")


def _status_kb(pid, field):
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(f"{field}:"):
            return int(line.split()[1])
    raise KeyError(field)


class TestWorkersAreBornLean:
    """The pool forks before any plan exists; a worker holds only the
    plan it builds from its slice."""

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_worker_peak_is_the_parent_before_the_plan(self):
        """A worker inherits the parent as it was at fork: nothing of the
        plan build, the face traces or the verifier.  Forking after them
        put each worker of this blast ~36 MB above the parent."""
        scenario = sedov_blast(levels=2)
        integ = HydroIntegrator(
            scenario.mesh, scenario.eos, backend="process", nprocs=2
        )
        dt = integ.timestep()
        ex = integ.executor()
        try:
            parent_kb = _status_kb(os.getpid(), "VmRSS")
            ex.ensure()
            integ.step(dt)
            peaks = [_status_kb(loc.process.pid, "VmHWM")
                     for loc in ex.engine.localities]
        finally:
            integ.close()
        assert len(peaks) == 2
        assert max(peaks) <= parent_kb + 16 * 1024, (peaks, parent_kb)

    def test_slice_plan_holds_its_bundles_and_steps_bit_identically(self):
        """A plan built from a pickled slice holds only the bundles its
        rank applies, and stepping the slices matches the full plan bit
        for bit — on a refined mesh, so fine bundles cross the pickle."""
        mesh_kw = dict(levels=1, refine_keys=(0, 5))
        (mesh, eos), (twin, _) = make_state_mesh(**mesh_kw), make_state_mesh(**mesh_kw)
        full, other = build_hydro_plan(mesh, nranks=2), build_hydro_plan(twin, nranks=2)
        slices = [
            HydroPlan.from_slice(pickle.loads(pickle.dumps(other.rank_slice(r))), other.arena)
            for r in range(2)
        ]
        for rank, piece in enumerate(slices):
            assert sorted(piece.ghosts.bundles) == sorted(
                pair for pair in full.ghosts.bundles if pair[1] == rank
            )
            assert [bool(runs) for runs in piece.runs] == [r == rank for r in range(2)]
        assert any(b.fine_dst.size for s in slices for b in s.ghosts.bundles.values())
        fused_step(full, eos, 1e-3, omega=0.3)
        fused_step(other, eos, 1e-3, omega=0.3, slices=slices)
        assert np.array_equal(full.arena.view(np.uint64), other.arena.view(np.uint64))
