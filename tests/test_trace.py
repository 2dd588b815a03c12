"""Task-trace recording and Chrome-trace export."""

import json

import pytest

from repro.amt.locality import Runtime
from repro.profiling.trace import (
    TaskTrace,
    TraceEvent,
    TraceRecorder,
    capture_runtime_trace,
)


def make_event(start=0.0, end=1.0, kind="hydro", worker=0, loc=0, name="t"):
    return TraceEvent(name=name, kind=kind, locality=loc, worker=worker,
                      start_s=start, end_s=end)


class TestTaskTrace:
    def test_add_and_len(self):
        trace = TaskTrace()
        trace.add(make_event())
        assert len(trace) == 1

    def test_invalid_event_rejected(self):
        with pytest.raises(ValueError):
            TaskTrace().add(make_event(start=2.0, end=1.0))

    def test_span_and_busy(self):
        trace = TaskTrace()
        trace.add(make_event(0.0, 1.0))
        trace.add(make_event(2.0, 4.0))
        assert trace.span() == 4.0
        assert trace.busy_time() == 3.0

    def test_by_kind_and_critical(self):
        trace = TaskTrace()
        trace.add(make_event(0, 1, kind="fmm"))
        trace.add(make_event(0, 5, kind="hydro"))
        assert trace.by_kind() == {"fmm": 1.0, "hydro": 5.0}
        assert trace.critical_kind() == "hydro"

    def test_empty_trace(self):
        trace = TaskTrace()
        assert trace.span() == 0.0
        assert trace.critical_kind() is None

    def test_chrome_export_format(self, tmp_path):
        trace = TaskTrace()
        trace.add(make_event(0.0, 0.5, kind="hydro", worker=3, loc=1, name="k1"))
        path = trace.save(tmp_path / "trace.json")
        data = json.loads(path.read_text())
        event = data["traceEvents"][0]
        assert event["ph"] == "X"
        assert event["pid"] == 1
        assert event["tid"] == 3
        assert event["dur"] == pytest.approx(0.5e6)


class TestRecorder:
    def test_records_real_tasks(self):
        rt = Runtime(2, 2)
        recorder = TraceRecorder()
        recorder.attach(rt)
        futures = [
            rt.localities[i % 2].async_(None, cost=1.0, kind="work", name=f"t{i}")
            for i in range(6)
        ]
        from repro.amt.future import when_all

        rt.run_until_ready(when_all(futures))
        recorder.detach()
        assert len(recorder.trace) == 6
        assert recorder.trace.busy_time() == pytest.approx(6.0)
        assert {e.locality for e in recorder.trace.events} == {0, 1}
        # Occupancy: 6 unit tasks on 2x2 workers -> span 2 virtual seconds.
        assert recorder.trace.span() == pytest.approx(2.0)

    def test_detach_stops_recording(self):
        rt = Runtime(1, 1)
        recorder = TraceRecorder()
        recorder.attach(rt)
        rt.run_until_ready(rt.here().async_(None, cost=1.0))
        recorder.detach()
        rt.run_until_ready(rt.here().async_(None, cost=1.0))
        assert len(recorder.trace) == 1

    def test_aggregate_capture(self):
        rt = Runtime(1, 2)
        rt.run_until_ready(rt.here().async_(None, cost=2.5, kind="fmm.m2l"))
        trace = capture_runtime_trace(rt)
        assert len(trace) == 1
        assert trace.events[0].kind == "fmm.m2l"
        assert trace.events[0].duration_s == pytest.approx(2.5)

    def test_distributed_driver_trace(self):
        """End to end: trace a distributed hydro step and see its phases."""
        from tests.test_distributed_driver import build_mesh
        from repro.core.distributed import DistributedHydroDriver
        from repro.distsim import RunConfig
        from repro.machines import FUGAKU

        mesh, eos = build_mesh()
        driver = DistributedHydroDriver(
            mesh, eos, config=RunConfig(machine=FUGAKU, nodes=2)
        )
        # The driver builds its own runtime per step; use counters instead.
        # Coalesced exchange: kernels + updates per stage, plus a handful
        # of bundle pack/unpack shards — far below one fill task per face.
        result = driver.step(1e-3)
        assert result.tasks_completed >= 8 * 2 * 3  # kernel+update per stage
        assert result.tasks_completed < 8 * (6 + 2) * 3  # never a task per face
