"""Localities and runtime utilities."""

import pytest

from repro.amt.locality import Runtime


class TestRuntimeBasics:
    def test_construction(self):
        rt = Runtime(n_localities=3, workers_per_locality=2)
        assert rt.n_localities == 3
        assert rt.localities[0] is rt.localities[0]

    def test_invalid_locality_count(self):
        with pytest.raises(ValueError):
            Runtime(n_localities=0)

    def test_async_on_locality(self):
        rt = Runtime(2, 2)
        future = rt.localities[1].async_sharded([], lambda: 11, cost=1.0)
        assert rt.run_until_ready(future) == 11

    def test_async_after_dataflow(self):
        rt = Runtime(1, 2)
        loc = rt.localities[0]
        a = loc.async_sharded([], lambda: 1, cost=1.0)
        b = loc.async_sharded([], lambda: 2, cost=1.0)
        c = loc.async_after([a, b], lambda: 3, cost=1.0)
        assert rt.run_until_ready(c) == 3
        assert rt.engine.now == pytest.approx(2.0)

    def test_run_until_ready_deadlock_detection(self):
        from repro.amt.future import Future

        rt = Runtime(1, 1)
        orphan = Future()
        with pytest.raises(RuntimeError, match="deadlock"):
            rt.run_until_ready(orphan)

    def test_utilization_bounds(self):
        rt = Runtime(2, 2)
        rt.localities[0].async_sharded([], None, cost=1.0)
        rt.run()
        assert 0.0 < rt.utilization() <= 1.0
