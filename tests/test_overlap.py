"""The fused ("overlap") schedule of the process backend.

* overlap is **bit-identical** to the BSP barrier schedule, with reflux,
  with gravity + rotation, across regrids, and across a worker crash +
  checkpoint recovery (the DES backend as oracle throughout, via
  ``crosscheck_hydro``); a fused step is ``begin`` + one round per stage +
  ``finish``;
* ``ParallelEngine.round(on_note=)`` / ``WorkerLink`` — mid-round notes,
  parent routing, and failure semantics (with ``on_note`` a remote raise
  ends the round at once, even with peers parked in ``link.wait``);
* the shm race detector's handshake rule: the fused-update conflict is
  real without the ``ghosts``→``go`` handshake and ordered by it, and the
  handshake orders *only* before-note against after-wait accesses;
* the plan cache carries no schedule state (format v4): the payload is
  the ghost arrays alone and builds a complete plan.
"""

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.amt.parallel import ParallelEngine, WorkerError
from repro.amt.shm import live_segments
from repro.analysis.effects import (
    MODE_READ,
    MODE_WRITE,
    REGION_INTERIOR,
    SEG_FIELDS,
    slot_range_rows,
)
from repro.analysis.shmrace import (
    AFTER_NOTE,
    AFTER_WAIT,
    BEFORE_NOTE,
    ShmEventLog,
    ShmRaceDetector,
)
from repro.core.crosscheck import conserved_sums, crosscheck_hydro
from repro.core.plancache import CACHE_FORMAT_VERSION, PlanCache
from repro.hydro.integrator import _RK3_STAGES, HydroIntegrator
from repro.hydro.plan import build_hydro_plan
from tests.test_hydro_plan import (
    _apply_mutation,
    _mutation_sequences,
    assert_meshes_identical,
    make_state_mesh,
)

pytestmark = pytest.mark.timeout(300)


# ---------------------------------------------------------------------------
# Tentpole: overlap is bit-identical to BSP (DES oracle via crosscheck).
# ---------------------------------------------------------------------------
#: The one ghost exchange, as a single-valued parameter: it keeps these
#: tests under the IDs (``[shm]``) the suite's floor list knows them by.
EXCHANGE = pytest.mark.parametrize("exchange", ["shm"])


class TestOverlapBitIdentity:
    @EXCHANGE
    def test_refined_mesh_with_reflux(self, exchange):
        mesh, eos = make_state_mesh(levels=1, refine_keys=(0, 3))
        crosscheck_hydro(mesh, steps=2, nprocs=2, eos=eos, overlap=True)

    @EXCHANGE
    def test_uniform_mesh_fused_update(self, exchange):
        # No coarse-fine faces -> no reflux -> the fused-update epoch and
        # its ghosts->go handshake are exercised on every stage.
        mesh, eos = make_state_mesh(levels=1)
        crosscheck_hydro(mesh, steps=2, nprocs=2, eos=eos, overlap=True)

    @pytest.mark.parametrize("overlap", [False, True], ids=["bsp", "overlap"])
    def test_rounds_per_step(self, overlap):
        # Uniform mesh (no reflux): BSP is begin + 3 x (ghost, rhs) +
        # finish barrier rounds, the rhs updating as it goes; fused, each
        # stage is one round.  Either way one more round harvests the
        # workers' timers into the integrator's registry.
        stages = len(_RK3_STAGES)
        mesh, eos = make_state_mesh(levels=1)
        ex = HydroIntegrator(
            mesh, eos, backend="process", nprocs=2, overlap=overlap,
        ).executor()
        try:
            ex.ensure()
            before = ex.engine.rounds
            ex.step(1e-4)
            assert ex.engine.rounds - before == 3 + (
                stages if overlap else 2 * stages
            )
        finally:
            ex.close()

    @given(ops=_mutation_sequences())
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_overlap_tracks_regrids(self, ops):
        # Regrids (delta replans of the live workers) must not desync the
        # overlap schedule from the serial oracle.  ``mutate`` is called
        # once per mesh per step, so it must be a pure function of
        # ``step_index`` to keep the two meshes in lockstep.
        def mutate(mesh, step_index):
            if 1 <= step_index <= len(ops):
                op, pick = ops[step_index - 1]
                _apply_mutation(mesh, op, pick)

        mesh, eos = make_state_mesh(levels=1, n=4)
        crosscheck_hydro(
            mesh, steps=min(len(ops) + 1, 3), nprocs=2, eos=eos,
            overlap=True, mutate=mutate,
        )

    def test_fmm_overlap_bit_identical(self):
        # Real FMM gravity under the overlap schedule: the parent solves
        # it between steps and ships the accelerations through shm, so the
        # process run stays bit-identical to the serial one.
        from repro.gravity.fmm import FmmSolver

        mesh, eos = make_state_mesh(levels=1, refine_keys=(2,))
        crosscheck_hydro(
            mesh, steps=2, nprocs=2, eos=eos, omega=0.4, overlap=True,
            gravity=lambda: FmmSolver(empty_mass_threshold=1e-12),
        )

    def test_overlap_attribution_populated(self):
        mesh, eos = make_state_mesh(levels=1)
        ex = HydroIntegrator(
            mesh, eos, backend="process", nprocs=2, overlap=True,
        ).executor()
        try:
            ex.step(1e-4)
            assert ex.compute_s > 0.0
            assert ex.exchange_wait_s >= 0.0
        finally:
            ex.close()


class TestOverlapUnderFaults:
    def test_crash_rollback_replay_matches_bsp(self):
        """A worker dies between steps; checkpoint recovery rolls the
        overlap run back and replays it to the same bits as the barrier
        run."""
        from repro.core.driver import OctoTigerSim
        from repro.scenarios.blast import sedov_blast

        def run(overlap):
            scenario = sedov_blast(levels=1)
            sim = OctoTigerSim(
                scenario.mesh, eos=scenario.eos, gravity=False,
                backend="process", nprocs=2, overlap=overlap,
                checkpoint_every=1,
            )
            try:
                sim.run(1)
                sim.integrator.executor().engine.crash(1)
                sim.run(1)
            finally:
                sim.close()
            assert sim.counters.total("resilience.rollbacks") == 1
            assert live_segments() == ()
            return conserved_sums(sim.mesh), sim.mesh

        sums_bsp, mesh_bsp = run(overlap=False)
        sums_ovl, mesh_ovl = run(overlap=True)
        assert np.array_equal(sums_bsp, sums_ovl)
        assert_meshes_identical(mesh_bsp, mesh_ovl)

    def test_raise_inside_a_fused_stage_tears_down_cleanly(self):
        """Rank 0's ghost apply raises before its ``ghosts`` note while rank
        1 is parked waiting for ``go``: the step fails with rank 0's error
        (not a timeout blaming rank 1), the blocked worker is stopped and
        no shm segment survives."""
        def corrupt(ghosts):
            ghosts.bundles[(1, 0)].copy_src[0] = 2**40  # np.take raises

        mesh, eos = make_state_mesh(levels=1)
        integ = HydroIntegrator(
            mesh, eos, backend="process", nprocs=2, overlap=True,
            verify_plans=False,
        )
        ex = integ.executor()
        ex.engine.timeout = 30.0
        ex.bundle_plan_hook = corrupt
        t0 = time.monotonic()
        with pytest.raises(WorkerError, match="IndexError") as err:
            integ.step(1e-4)
        assert err.value.rank == 0
        assert time.monotonic() - t0 < 15.0
        assert not ex.engine.started
        assert live_segments() == ()


# ---------------------------------------------------------------------------
# round(on_note=) / WorkerLink: mid-round notes and routes.
# ---------------------------------------------------------------------------
def _link_factory(rank, registry, link):
    def handler(command):
        if command == "relay":
            # Every rank tells the parent it is ready, computes "interior
            # work", then waits for the parent's routed go-ahead.
            link.note("ready", rank)
            token = link.wait("go")
            return (rank, token)
        if command == "boom" and rank == 1:
            raise RuntimeError("async boom")
        if command == "half":
            # Rank 0 fails before posting its note; rank 1 parks in wait.
            if rank == 0:
                raise RuntimeError("early boom")
            link.note("ready", rank)
            return link.wait("go")
        return command

    return handler


class TestRoundAsync:
    def test_note_route_round_trip(self):
        got = []

        def on_note(rank, tag, payload):
            got.append((rank, tag, payload))
            if len(got) == 3:  # all ranks ready -> broadcast the go-ahead
                return [(r, "go", "token") for r in range(3)]
            return None

        with ParallelEngine(3) as engine:
            engine.start(_link_factory)
            out = engine.round(("relay"), on_note=on_note)
        assert out == [(0, "token"), (1, "token"), (2, "token")]
        assert {r for r, tag, _ in got} == {0, 1, 2}
        assert all(tag == "ready" for _, tag, _ in got)

    def test_async_round_without_notes_matches_round(self):
        with ParallelEngine(2) as engine:
            engine.start(_link_factory)
            assert engine.round({"x": 1}) == [{"x": 1}] * 2
            # The pool is reusable for the next round.
            assert engine.round({"y": 2}) == [{"y": 2}] * 2

    def test_worker_error_propagates_from_async_round(self):
        with ParallelEngine(2) as engine:
            engine.start(_link_factory)
            with pytest.raises(WorkerError, match="async boom"):
                engine.round("boom")

    def test_error_before_note_is_raised_at_once(self):
        # The go-ahead needs both notes, so rank 1 waits for ever; the
        # parent must raise rank 0's error when it arrives instead of
        # polling to the deadline and blaming rank 1.
        def on_note(rank, tag, payload):
            return ()

        with ParallelEngine(2, timeout=3.0) as engine:
            engine.start(_link_factory)
            t0 = time.monotonic()
            with pytest.raises(WorkerError, match="early boom") as err:
                engine.round("half", on_note=on_note)
            elapsed = time.monotonic() - t0
        assert err.value.rank == 0
        assert "RuntimeError" in err.value.remote_traceback
        assert elapsed < 1.5
        assert live_segments() == ()


# ---------------------------------------------------------------------------
# The handshake rule of the shm race detector.
# ---------------------------------------------------------------------------
def _fused_update_events(log, update_position):
    """The overlap epoch's one real conflict: rank 0 reads rank 1's donor
    interior during the exchange while rank 1's fused update writes it."""
    log.writer(0).log(
        0,
        slot_range_rows(1, 2, MODE_READ, SEG_FIELDS, REGION_INTERIOR),
        BEFORE_NOTE,
    )
    log.writer(1).log(
        0,
        slot_range_rows(1, 2, MODE_WRITE, SEG_FIELDS, REGION_INTERIOR),
        update_position,
    )


class TestOrderedPhases:
    def test_fused_update_conflict_without_edge(self):
        # Negative control: in a round with no handshake every access is
        # before-note, and the fused update IS a race.
        with ShmEventLog(2) as log:
            _fused_update_events(log, BEFORE_NOTE)
            det = ShmRaceDetector(log, raise_on_finding=False)
            findings = det.scan()
        assert len(findings) == 1
        assert findings[0].kind == "shm-race"

    def test_ghosts_go_edge_sanctions_it(self):
        # Before-note on rank 0 precedes after-wait on rank 1.
        with ShmEventLog(2) as log:
            _fused_update_events(log, AFTER_WAIT)
            assert ShmRaceDetector(log).scan() == []

    def test_edge_does_not_excuse_other_phases(self):
        # A write between rank 1's note and its wait (its rhs) is NOT
        # ordered against rank 0's exchange read, nor are two after-wait
        # accesses against each other.
        with ShmEventLog(2) as log:
            _fused_update_events(log, AFTER_NOTE)
            det = ShmRaceDetector(log, raise_on_finding=False)
            assert len(det.scan()) == 1
        with ShmEventLog(2) as log:
            for rank in (0, 1):
                log.writer(rank).log(
                    0,
                    slot_range_rows(1, 2, MODE_WRITE, SEG_FIELDS, REGION_INTERIOR),
                    AFTER_WAIT,
                )
            det = ShmRaceDetector(log, raise_on_finding=False)
            assert len(det.scan()) == 1


# ---------------------------------------------------------------------------
# The plan cache carries no schedule state (format v4: bundle arrays only).
# ---------------------------------------------------------------------------
class TestSplitInPlanCache:
    def test_cache_format_is_v4(self):
        assert CACHE_FORMAT_VERSION == 4

    def test_split_less_payload_still_builds(self, tmp_path):
        # The stored payload is the ghost bundle arrays alone; a cache hit
        # on it builds a complete plan.
        mesh, _ = make_state_mesh(levels=1)
        plan = build_hydro_plan(mesh)
        payload = plan.ghosts.to_payload()
        assert not [key for key in payload if key.startswith("split_")]
        cache = PlanCache(tmp_path)
        cache.store("hydro", "fp", {}, payload)
        hit = cache.load("hydro", "fp", {})
        rebuilt = build_hydro_plan(mesh, payload=dict(hit))
        for name, arr in payload.items():
            assert np.array_equal(rebuilt.ghosts.to_payload()[name], arr)
