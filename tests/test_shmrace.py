"""Dynamic shm race detection (repro.analysis.shmrace).

Unit tests for the event log / writer / detector plus the end-to-end
acceptance case: a seeded scatter-overlap race in the ghost bundle plan
is caught by the dynamic detector at the first barrier, while a clean
run replays thousands of access events with zero findings.
"""

import numpy as np
import pytest

from repro.amt.shm import live_segments
from repro.analysis.effects import (
    MODE_ACCUM,
    MODE_READ,
    MODE_WRITE,
    REGION_ALL,
    REGION_GHOST,
    REGION_INTERIOR,
    SEG_FIELDS,
    SEG_FLUX,
    field_access_rows,
    slot_range_rows,
)
from repro.analysis.shmrace import (
    BEFORE_NOTE,
    ShmEventLog,
    ShmRaceDetector,
    ShmRaceError,
)
from repro.core.crosscheck import crosscheck_hydro
from repro.hydro.integrator import HydroIntegrator
from tests.test_hydro_plan import make_state_mesh

pytestmark = pytest.mark.timeout(300)


class TestEventLog:
    def test_log_and_read_back(self):
        with ShmEventLog(nranks=2, capacity=8) as log:
            w0 = log.writer(0)
            w0.log(3, slot_range_rows(0, 4, MODE_WRITE, SEG_FIELDS))
            w0.log(4, slot_range_rows(1, 2, MODE_READ, SEG_FLUX,
                                      REGION_INTERIOR))
            rows = log.events(0)
            assert rows.shape == (2, 7)
            assert rows[0].tolist() == [3, MODE_WRITE, SEG_FIELDS, 0, 4,
                                        REGION_ALL, BEFORE_NOTE]
            assert rows[1].tolist() == [4, MODE_READ, SEG_FLUX, 1, 2,
                                        REGION_INTERIOR, BEFORE_NOTE]
            assert log.events(1).shape == (0, 7)

    def test_overflow_counts_dropped_never_raises(self):
        with ShmEventLog(nranks=1, capacity=2) as log:
            w = log.writer(0)
            rows = np.repeat(
                slot_range_rows(0, 1, MODE_READ, SEG_FIELDS), 5, axis=0
            )
            w.log(0, rows)
            assert log.events(0).shape == (2, 7)
            assert log.dropped(0) == 3
            log.reset()
            assert log.events(0).shape == (0, 7)
            assert log.dropped(0) == 3  # cumulative across resets

    def test_unlinks_segment(self):
        log = ShmEventLog(nranks=1)
        name = log.arena.name
        assert name in live_segments()
        log.unlink()
        assert name not in live_segments()

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            ShmEventLog(nranks=0)
        with pytest.raises(ValueError):
            ShmEventLog(nranks=1, capacity=0)


class TestFieldAccessRows:
    N, G, NF = 4, 1, 2

    def _idx(self, slot, field, i, j, k):
        m = self.N + 2 * self.G
        return slot * self.NF * m**3 + field * m**3 + (i * m + j) * m + k

    def test_interior_and_ghost_classified(self):
        interior = np.array([self._idx(0, 0, 1, 1, 1)])
        ghost = np.array([self._idx(0, 1, 0, 3, 3)])
        rows = field_access_rows(
            [interior, ghost], MODE_WRITE, self.N, self.G, self.NF
        )
        assert rows.tolist() == [
            [MODE_WRITE, SEG_FIELDS, 0, 1, REGION_INTERIOR],
            [MODE_WRITE, SEG_FIELDS, 0, 1, REGION_GHOST],
        ]

    def test_consecutive_slots_merge(self):
        idx = np.array([
            self._idx(0, 0, 2, 2, 2),
            self._idx(1, 0, 2, 2, 2),
            self._idx(3, 0, 2, 2, 2),
        ])
        rows = field_access_rows([idx], MODE_READ, self.N, self.G, self.NF)
        assert rows.tolist() == [
            [MODE_READ, SEG_FIELDS, 0, 2, REGION_INTERIOR],
            [MODE_READ, SEG_FIELDS, 3, 4, REGION_INTERIOR],
        ]

    def test_empty_inputs(self):
        rows = field_access_rows(
            [np.empty(0, dtype=np.intp)], MODE_READ, self.N, self.G, self.NF
        )
        assert rows.shape == (0, 5)


def _two_rank_log():
    return ShmEventLog(nranks=2, capacity=64)


class TestDetector:
    def _scan(self, rows_by_rank, raise_on_finding=False):
        with _two_rank_log() as log:
            for rank, entries in rows_by_rank.items():
                w = log.writer(rank)
                for epoch, rows in entries:
                    w.log(epoch, rows)
            det = ShmRaceDetector(log, raise_on_finding=raise_on_finding)
            return det, det.scan()

    def test_concurrent_overlapping_writes_flagged(self):
        det, found = self._scan({
            0: [(2, slot_range_rows(0, 4, MODE_WRITE, SEG_FIELDS))],
            1: [(2, slot_range_rows(3, 8, MODE_WRITE, SEG_FIELDS))],
        })
        [f] = found
        assert f.kind == "shm-race"
        assert f.task_a == "rank0@epoch2"
        assert f.task_b == "rank1@epoch2"
        assert f.resource_a == "fields[0:4) all"
        assert f.resource_b == "fields[3:8) all"

    def test_write_read_flagged(self):
        _, found = self._scan({
            0: [(1, slot_range_rows(0, 2, MODE_WRITE, SEG_FIELDS))],
            1: [(1, slot_range_rows(1, 2, MODE_READ, SEG_FIELDS))],
        })
        assert len(found) == 1

    def test_commuting_modes_ok(self):
        for mode in (MODE_READ, MODE_ACCUM):
            _, found = self._scan({
                0: [(1, slot_range_rows(0, 4, mode, SEG_FIELDS))],
                1: [(1, slot_range_rows(0, 4, mode, SEG_FIELDS))],
            })
            assert found == []

    def test_barrier_orders_distinct_epochs(self):
        _, found = self._scan({
            0: [(1, slot_range_rows(0, 4, MODE_WRITE, SEG_FIELDS))],
            1: [(2, slot_range_rows(0, 4, MODE_WRITE, SEG_FIELDS))],
        })
        assert found == []

    def test_disjoint_ranges_and_segments_ok(self):
        _, found = self._scan({
            0: [(1, slot_range_rows(0, 4, MODE_WRITE, SEG_FIELDS))],
            1: [(1, slot_range_rows(4, 8, MODE_WRITE, SEG_FIELDS)),
                (1, slot_range_rows(0, 4, MODE_WRITE, SEG_FLUX))],
        })
        assert found == []

    def test_interior_ghost_regions_disjoint(self):
        """The ghost-round pattern: donor reads the interior of a chunk
        whose ghost band the owner writes — same slot, no race."""
        _, found = self._scan({
            0: [(1, slot_range_rows(0, 1, MODE_READ, SEG_FIELDS,
                                    REGION_INTERIOR))],
            1: [(1, slot_range_rows(0, 1, MODE_WRITE, SEG_FIELDS,
                                    REGION_GHOST))],
        })
        assert found == []

    def test_region_all_aliases_both(self):
        _, found = self._scan({
            0: [(1, slot_range_rows(0, 1, MODE_WRITE, SEG_FIELDS,
                                    REGION_ALL))],
            1: [(1, slot_range_rows(0, 1, MODE_READ, SEG_FIELDS,
                                    REGION_GHOST))],
        })
        assert len(found) == 1

    def test_duplicate_conflicts_deduped(self):
        rows = slot_range_rows(0, 2, MODE_WRITE, SEG_FIELDS)
        _, found = self._scan({
            0: [(1, rows), (1, rows)],
            1: [(1, rows)],
        })
        assert len(found) == 1

    def test_same_conflict_on_two_rank_pairs_reported_twice(self):
        """Rank 0 writes fields[0:4) while ranks 1 and 2 both read
        fields[2:3) in the same epoch: two unordered pairs, two findings."""
        with ShmEventLog(nranks=3, capacity=8) as log:
            log.writer(0).log(1, slot_range_rows(0, 4, MODE_WRITE, SEG_FIELDS))
            for rank in (1, 2):
                log.writer(rank).log(
                    1, slot_range_rows(2, 3, MODE_READ, SEG_FIELDS)
                )
            found = ShmRaceDetector(log, raise_on_finding=False).scan()
        assert sorted((f.task_a, f.task_b) for f in found) == [
            ("rank0@epoch1", "rank1@epoch1"),
            ("rank0@epoch1", "rank2@epoch1"),
        ]

    def test_raise_mode_and_counters(self):
        with _two_rank_log() as log:
            log.writer(0).log(1, slot_range_rows(0, 2, MODE_WRITE,
                                                 SEG_FIELDS))
            log.writer(1).log(1, slot_range_rows(0, 2, MODE_WRITE,
                                                 SEG_FIELDS))
            det = ShmRaceDetector(log)
            with pytest.raises(ShmRaceError):
                det.scan()
            assert det.events_seen == 2
            assert det.scans == 1
            assert len(det.findings) == 1
            assert det.dropped == 0
            # The scan drained the log: a second scan is clean.
            assert det.scan() == []

    def test_dropped_events_fail_the_scan(self):
        """A full log drops rows; the scan must not report the truncated
        round clean — a finding in collect mode, ShmRaceError otherwise,
        and only when the dropped count grew."""
        rows = np.repeat(slot_range_rows(0, 1, MODE_READ, SEG_FIELDS), 3, axis=0)
        with ShmEventLog(nranks=2, capacity=1) as log:
            log.writer(0).log(1, rows)
            det = ShmRaceDetector(log, raise_on_finding=False)
            [finding] = det.scan()
            assert finding.kind == "shm-log-overflow"
            assert "2 event(s) dropped" in str(finding)
            assert det.scan() == []
            log.writer(1).log(2, rows)
            with pytest.raises(ShmRaceError, match="dropped"):
                ShmRaceDetector(log).scan()


def inject_scatter_overlap(plan):
    """Seed a real race: point one remote bundle's scatter targets at
    elements another rank's bundle already writes."""
    remote = [
        b for _, b in sorted(plan.bundles.items())
        if b.src_locality != b.dst_locality and b.copy_dst.size
    ]
    first = remote[0]
    other = next(
        b for b in remote if b.dst_locality != first.dst_locality
        and b.copy_dst.size
    )
    k = min(first.copy_dst.size, other.copy_dst.size, 16)
    other.copy_dst[:k] = first.copy_dst[:k]


class TestSeededRace:
    def test_dynamic_detector_catches_injection(self):
        """Static verification off, dynamic detection on: the injected
        overlap must surface as an ShmRaceError at a ghost barrier."""
        mesh, eos = make_state_mesh(levels=1, refine_keys=(0,))
        ex = HydroIntegrator(
            mesh, eos, backend="process", nprocs=2,
            verify_plans=False, detect_races=True,
        ).executor()
        ex.bundle_plan_hook = inject_scatter_overlap
        try:
            with pytest.raises(ShmRaceError) as err:
                ex.step(1e-4)
            assert "shm race" in str(err.value)
            assert ex.race_detector.findings
            assert all(
                f.kind == "shm-race" for f in ex.race_detector.findings
            )
        finally:
            ex.close()
        assert live_segments() == ()

    def test_clean_run_zero_findings_shm_wire(self):
        mesh, eos = make_state_mesh(levels=1, refine_keys=(0,))
        ex = HydroIntegrator(
            mesh, eos, backend="process", nprocs=2, detect_races=True,
        ).executor()
        try:
            ex.step(1e-4)
            ex.step(1e-4)
            det = ex.race_detector
            assert det.findings == []
            assert det.events_seen > 0
            assert det.scans > 0
            assert det.dropped == 0
        finally:
            ex.close()


class TestCrosscheckWires:
    # Single-valued: keeps the ID the suite's floor list knows the test by.
    @pytest.mark.parametrize("exchange", ["shm"])
    def test_blast_crosscheck_zero_findings(self, exchange):
        mesh, _ = make_state_mesh(levels=1, refine_keys=(0,))
        result = crosscheck_hydro(
            mesh, steps=2, nprocs=2, detect_races=True
        )
        assert result.ok
        assert result.race_findings == 0
        assert result.race_events > 0
