"""The futurized interior/halo overlap schedule (ISSUE 10).

Covers the tentpole contracts and their satellites:

* the region split is an exact partition — hypothesis sweep over grid
  sizes asserting cover, disjointness, and halo width equal to the
  stencil radius, plus the ``verify_region_split`` wiring that makes the
  executor refuse to schedule an unverified split;
* overlap is **bit-identical** to the BSP barrier schedule on both
  wires, with reflux, with gravity + rotation, across regrids, and
  under seeded faults + checkpoint recovery (the DES backend as oracle
  throughout, via ``crosscheck_hydro``);
* ``ParallelEngine.round_async`` / ``WorkerLink`` — mid-round notes,
  parent routing, and barrier-equivalent failure semantics;
* the shm race detector's message-grained ``ordered_phases`` edges:
  the fused-update conflict is real without the ``ghosts``→``go`` edge
  and sanctioned with it, and the edge excuses *only* that phase pair;
* the plan cache no longer carries the split (format v3): the payload is
  the ghost arrays alone and builds a complete plan.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.amt.parallel import ParallelEngine, WorkerError
from repro.analysis.planverify import (
    PlanVerificationError,
    verify_region_split,
)
from repro.analysis.shmrace import (
    MODE_READ,
    MODE_WRITE,
    PHASE_COMPUTE,
    PHASE_EXCHANGE,
    PHASE_UPDATE,
    REGION_INTERIOR,
    SEG_FIELDS,
    ShmEventLog,
    ShmRaceDetector,
    slot_range_rows,
)
from repro.core.crosscheck import conserved_sums, crosscheck_hydro
from repro.core.plancache import CACHE_FORMAT_VERSION, PlanCache
from repro.hydro.plan import (
    STENCIL_RADIUS,
    RegionSplit,
    build_hydro_plan,
    compute_region_split,
)
from repro.hydro.process_backend import ProcessHydroExecutor
from tests.test_hydro_plan import (
    _apply_mutation,
    _mutation_sequences,
    assert_meshes_identical,
    fake_gravity,
    make_state_mesh,
)

pytestmark = pytest.mark.timeout(300)


# ---------------------------------------------------------------------------
# Satellite 3: the split partition is exact, and the executor refuses an
# unverified one.
# ---------------------------------------------------------------------------
class TestRegionSplitPartition:
    @given(n=st.integers(min_value=1, max_value=24))
    @settings(max_examples=24, deadline=None)
    def test_split_is_exact_partition(self, n):
        split = compute_region_split(n)
        count = np.zeros((n, n, n), dtype=np.int64)
        for x0, x1, y0, y1, z0, z1 in split.boxes:
            count[x0:x1, y0:y1, z0:z1] += 1
        assert (count == 1).all()  # cover and disjoint in one shot
        assert split.width == STENCIL_RADIUS
        if split.has_interior:
            w = split.width
            assert split.interior_box == (w, n - w, w, n - w, w, n - w)
        else:
            assert n <= 2 * split.width

    @given(n=st.integers(min_value=1, max_value=16))
    @settings(max_examples=16, deadline=None)
    def test_verifier_accepts_canonical_split(self, n):
        split = compute_region_split(n)
        assert verify_region_split(split, n, ghost=STENCIL_RADIUS) == []

    def test_interior_cells_never_reach_ghosts(self):
        split = compute_region_split(12)
        x0, x1, y0, y1, z0, z1 = split.interior_box
        w = split.width
        for lo, hi in ((x0, x1), (y0, y1), (z0, z1)):
            assert lo - w >= 0 and hi + w <= 12

    @pytest.mark.parametrize(
        "corrupt, check",
        [
            # Overlapping halo slab: double-written dudt cells.
            (lambda s: RegionSplit(
                s.n, s.width, s.interior_box,
                s.halo_boxes[:-1] + ((0, s.n, 0, s.n, 0, s.n),),
            ), "split-disjoint"),
            # Shrunken interior: uncovered cells.
            (lambda s: RegionSplit(
                s.n, s.width,
                (s.width + 1, s.n - s.width, s.width, s.n - s.width,
                 s.width, s.n - s.width),
                s.halo_boxes,
            ), "split-cover"),
            # Wrong halo width: an interior stencil would read a ghost.
            (lambda s: RegionSplit(
                s.n, 1, (1, s.n - 1, 1, s.n - 1, 1, s.n - 1),
                ((0, 1, 0, s.n, 0, s.n), (s.n - 1, s.n, 0, s.n, 0, s.n),
                 (1, s.n - 1, 0, 1, 0, s.n), (1, s.n - 1, s.n - 1, s.n, 0, s.n),
                 (1, s.n - 1, 1, s.n - 1, 0, 1),
                 (1, s.n - 1, 1, s.n - 1, s.n - 1, s.n)),
            ), "split-width"),
        ],
    )
    def test_corrupted_split_flagged(self, corrupt, check):
        split = compute_region_split(8)
        bad = corrupt(split)
        found = {v.check for v in verify_region_split(bad, 8, ghost=2)}
        assert check in found

    def test_executor_refuses_unverified_split(self):
        """Planverify wiring: the overlap schedule will not run on a split
        that has not passed ``verify_region_split``."""
        mesh, eos = make_state_mesh(levels=1)
        ex = ProcessHydroExecutor(mesh, eos=eos, nprocs=2, overlap=True)
        try:
            ex.ensure()
            assert ex._split_verified
            good = ex.split
            ex.split = RegionSplit(
                good.n, good.width, good.interior_box,
                good.halo_boxes + ((0, good.n, 0, good.n, 0, good.n),),
            )
            ex._split_verified = False
            with pytest.raises(PlanVerificationError, match="split-disjoint"):
                ex.step(1e-4)
        finally:
            ex.close()


# ---------------------------------------------------------------------------
# Tentpole: overlap is bit-identical to BSP (DES oracle via crosscheck).
# ---------------------------------------------------------------------------
class TestOverlapBitIdentity:
    @pytest.mark.parametrize("wire", ["shm", "pipe"])
    def test_refined_mesh_with_reflux(self, wire):
        mesh, eos = make_state_mesh(levels=1, refine_keys=(0, 3))
        crosscheck_hydro(mesh, steps=2, nprocs=2, eos=eos, wire=wire,
                         overlap=True)

    @pytest.mark.parametrize("wire", ["shm", "pipe"])
    def test_uniform_mesh_fused_update(self, wire):
        # No coarse-fine faces -> no reflux -> the fused-update epoch and
        # its ghosts->go handshake are exercised on every stage.
        mesh, eos = make_state_mesh(levels=1)
        crosscheck_hydro(mesh, steps=2, nprocs=2, eos=eos, wire=wire,
                         overlap=True)

    def test_gravity_rotation_every_stage_fallback(self):
        # gravity_every_stage rewrites accelerations mid-stage; stages 2-3
        # fall back to the barrier schedule while stage 1 overlaps.  The
        # mix must still be bit-identical.
        mesh, eos = make_state_mesh(levels=1, refine_keys=(2,))
        crosscheck_hydro(
            mesh, steps=2, nprocs=2, eos=eos, omega=0.4,
            gravity=lambda: fake_gravity, gravity_every_stage=True,
            overlap=True,
        )

    @given(ops=_mutation_sequences())
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_overlap_tracks_regrids(self, ops):
        # The split survives delta replans; regrids must not desync the
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
            gravity=lambda: FmmSolver(
                empty_mass_threshold=1e-12
            ).as_gravity_callback(),
        )

    def test_overlap_attribution_populated(self):
        mesh, eos = make_state_mesh(levels=1)
        ex = ProcessHydroExecutor(mesh, eos=eos, nprocs=2, overlap=True)
        try:
            ex.step(1e-4)
            assert ex.compute_s > 0.0
            assert ex.exchange_wait_s >= 0.0
        finally:
            ex.close()


class TestOverlapUnderFaults:
    def test_crash_rollback_replay_matches_bsp(self):
        """Seeded crash + checkpoint recovery: the overlap run rolls back
        and replays to the same bits as the barrier run."""
        from repro.core.driver import OctoTigerSim
        from repro.resilience.faults import FaultSpec
        from repro.scenarios.blast import sedov_blast

        def run(overlap):
            scenario = sedov_blast(levels=1)
            sim = OctoTigerSim(
                scenario.mesh, eos=scenario.eos, nodes=2,
                backend="process", nprocs=2, overlap=overlap,
                faults=FaultSpec(crash_locality=1, crash_step=1, seed=0),
                checkpoint_every=1,
            )
            try:
                sim.run(2)
            finally:
                sim.close()
            assert sim.counters.total("resilience.rollbacks") >= 1
            return conserved_sums(sim.mesh), sim.mesh

        sums_bsp, mesh_bsp = run(overlap=False)
        sums_ovl, mesh_ovl = run(overlap=True)
        assert np.array_equal(sums_bsp, sums_ovl)
        assert_meshes_identical(mesh_bsp, mesh_ovl)


# ---------------------------------------------------------------------------
# round_async / WorkerLink: the dependency-grained round primitive.
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
            out = engine.round_async(("relay"), on_note=on_note)
        assert out == [(0, "token"), (1, "token"), (2, "token")]
        assert {r for r, tag, _ in got} == {0, 1, 2}
        assert all(tag == "ready" for _, tag, _ in got)

    def test_async_round_without_notes_matches_round(self):
        with ParallelEngine(2) as engine:
            engine.start(_link_factory)
            assert engine.round_async({"x": 1}) == [{"x": 1}] * 2
            # The pool is reusable for ordinary barrier rounds afterwards.
            assert engine.round({"y": 2}) == [{"y": 2}] * 2

    def test_worker_error_propagates_from_async_round(self):
        with ParallelEngine(2) as engine:
            engine.start(_link_factory)
            with pytest.raises(WorkerError, match="async boom"):
                engine.round_async("boom")


# ---------------------------------------------------------------------------
# Message-grained happens-before edges in the shm race detector.
# ---------------------------------------------------------------------------
def _fused_update_events(log):
    """The overlap epoch's one real conflict: rank 0 reads rank 1's donor
    interior during the exchange while rank 1's fused update writes it."""
    log.writer(0).log(
        0,
        slot_range_rows(1, 2, MODE_READ, SEG_FIELDS, REGION_INTERIOR),
        phase=PHASE_EXCHANGE,
    )
    log.writer(1).log(
        0,
        slot_range_rows(1, 2, MODE_WRITE, SEG_FIELDS, REGION_INTERIOR),
        phase=PHASE_UPDATE,
    )


class TestOrderedPhases:
    def test_fused_update_conflict_without_edge(self):
        # Negative control: with pure barrier-epoch semantics the fused
        # update IS a race -- the detector must say so.
        with ShmEventLog(2) as log:
            _fused_update_events(log)
            det = ShmRaceDetector(log, raise_on_finding=False)
            findings = det.scan()
        assert len(findings) == 1
        assert findings[0].kind == "shm-race"

    def test_ghosts_go_edge_sanctions_it(self):
        with ShmEventLog(2) as log:
            _fused_update_events(log)
            det = ShmRaceDetector(
                log, ordered_phases={(PHASE_EXCHANGE, PHASE_UPDATE)}
            )
            assert det.scan() == []

    def test_edge_does_not_excuse_other_phases(self):
        # A compute-phase write against an exchange-phase read is NOT on
        # the sanctioned edge and must still be flagged.
        with ShmEventLog(2) as log:
            log.writer(0).log(
                0,
                slot_range_rows(1, 2, MODE_READ, SEG_FIELDS, REGION_INTERIOR),
                phase=PHASE_EXCHANGE,
            )
            log.writer(1).log(
                0,
                slot_range_rows(1, 2, MODE_WRITE, SEG_FIELDS, REGION_INTERIOR),
                phase=PHASE_COMPUTE,
            )
            det = ShmRaceDetector(
                log,
                raise_on_finding=False,
                ordered_phases={(PHASE_EXCHANGE, PHASE_UPDATE)},
            )
            assert len(det.scan()) == 1


# ---------------------------------------------------------------------------
# The plan cache does not carry the split (format v4: bundle arrays only).
# ---------------------------------------------------------------------------
class TestSplitInPlanCache:
    def test_cache_format_is_v4(self):
        assert CACHE_FORMAT_VERSION == 4

    def test_split_less_payload_still_builds(self, tmp_path):
        # The stored payload is the ghost bundle arrays alone; a cache hit
        # on it builds a complete plan (the executor computes the split
        # itself).
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
