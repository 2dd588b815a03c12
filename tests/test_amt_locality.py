"""Localities, remote actions, channels, runtime utilities."""

import pytest

from repro.amt.locality import ActionRegistry, Runtime


class TestRuntimeBasics:
    def test_construction(self):
        rt = Runtime(n_localities=3, workers_per_locality=2)
        assert rt.n_localities == 3
        assert rt.here() is rt.localities[0]

    def test_invalid_locality_count(self):
        with pytest.raises(ValueError):
            Runtime(n_localities=0)

    def test_async_on_locality(self):
        rt = Runtime(2, 2)
        future = rt.localities[1].async_(lambda: 11, cost=1.0)
        assert rt.run_until_ready(future) == 11

    def test_async_after_dataflow(self):
        rt = Runtime(1, 2)
        loc = rt.here()
        a = loc.async_(lambda: 1, cost=1.0)
        b = loc.async_(lambda: 2, cost=1.0)
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
        rt.here().async_(None, cost=1.0)
        rt.run()
        assert 0.0 < rt.utilization() <= 1.0


class TestActions:
    def test_registry_lookup(self):
        reg = ActionRegistry()
        reg.register("f", lambda: 1)
        assert "f" in reg
        assert reg.lookup("f")() == 1

    def test_duplicate_registration(self):
        reg = ActionRegistry()
        reg.register("f", lambda: 1)
        with pytest.raises(ValueError):
            reg.register("f", lambda: 2)

    def test_unknown_action(self):
        with pytest.raises(KeyError):
            ActionRegistry().lookup("ghost")

    def test_remote_invocation(self):
        rt = Runtime(2, 2)
        rt.actions.register("add", lambda a, b: a + b)
        future = rt.apply_remote(0, 1, "add", 20, 22, cost=1e-6)
        assert rt.run_until_ready(future) == 42

    def test_remote_takes_network_time(self):
        rt = Runtime(2, 1)
        rt.actions.register("noop", lambda: None)
        future = rt.apply_remote(0, 1, "noop", size_bytes=1_000_000)
        rt.run_until_ready(future)
        # Request + reply both cross the wire: at least two latencies.
        assert rt.engine.now >= 2 * rt.network.latency_s

    def test_local_invocation_cheaper_than_remote(self):
        rt1 = Runtime(2, 1)
        rt1.actions.register("noop", lambda: None)
        rt1.run_until_ready(rt1.apply_remote(0, 0, "noop"))
        local_time = rt1.engine.now

        rt2 = Runtime(2, 1)
        rt2.actions.register("noop", lambda: None)
        rt2.run_until_ready(rt2.apply_remote(0, 1, "noop"))
        assert local_time < rt2.engine.now

    def test_remote_exception_propagates(self):
        rt = Runtime(2, 1)

        def bad():
            raise ValueError("remote boom")

        rt.actions.register("bad", bad)
        future = rt.apply_remote(0, 1, "bad")
        with pytest.raises(ValueError, match="remote boom"):
            rt.run_until_ready(future)
