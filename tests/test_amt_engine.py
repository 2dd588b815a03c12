"""Discrete-event engine semantics."""

import pytest

from repro.amt.engine import Engine


class TestOrdering:
    def test_time_order(self):
        eng = Engine()
        log = []
        eng.post(2.0, lambda: log.append("b"))
        eng.post(1.0, lambda: log.append("a"))
        eng.run()
        assert log == ["a", "b"]
        assert eng.now == 2.0

    def test_fifo_for_simultaneous_events(self):
        eng = Engine()
        log = []
        for i in range(10):
            eng.post(1.0, lambda i=i: log.append(i))
        eng.run()
        assert log == list(range(10))

    def test_post_during_run(self):
        eng = Engine()
        log = []

        def first():
            log.append("first")
            eng.post(0.5, lambda: log.append("nested"))

        eng.post(1.0, first)
        eng.post(2.0, lambda: log.append("last"))
        eng.run()
        assert log == ["first", "nested", "last"]
        assert eng.now == 2.0

    def test_post_at_absolute(self):
        eng = Engine()
        eng.post_at(5.0, lambda: None)
        eng.run()
        assert eng.now == 5.0

    def test_post_into_past_rejected(self):
        eng = Engine()
        eng.post(1.0, lambda: eng.post_at(0.5, lambda: None))
        with pytest.raises(ValueError):
            eng.run()

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().post(-1.0, lambda: None)


class TestControl:
    def test_run_until(self):
        eng = Engine()
        log = []
        eng.post(1.0, lambda: log.append(1))
        eng.post(3.0, lambda: log.append(3))
        eng.run(until=2.0)
        assert log == [1]
        assert eng.now == 2.0
        eng.run()
        assert log == [1, 3]

    def test_max_events(self):
        eng = Engine()
        fired = []
        for i in range(10):
            eng.post(1.0, lambda i=i: fired.append(i))
        eng.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_step_returns_false_when_empty(self):
        assert Engine().step() is False

    def test_reset(self):
        eng = Engine()
        eng.post(1.0, lambda: None)
        eng.run()
        eng.reset()
        assert eng.now == 0.0
        assert eng.empty()

    def test_not_reentrant(self):
        eng = Engine()
        errors = []

        def reenter():
            try:
                eng.run()
            except RuntimeError as exc:
                errors.append(exc)

        eng.post(1.0, reenter)
        eng.run()
        assert len(errors) == 1


class TestNonFiniteDelays:
    """NaN compares false both ways, so a NaN-keyed heap entry silently
    corrupts the heap invariant; the engine must reject it at post time."""

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), float("-inf")])
    def test_post_rejects_non_finite_delay(self, delay):
        eng = Engine()
        with pytest.raises(ValueError, match="non-finite"):
            eng.post(delay, lambda: None)
        assert eng.empty()  # nothing slipped into the queue

    @pytest.mark.parametrize("when", [float("nan"), float("inf")])
    def test_post_at_rejects_non_finite_time(self, when):
        eng = Engine()
        with pytest.raises(ValueError, match="non-finite"):
            eng.post_at(when, lambda: None)

    def test_finite_delays_still_accepted(self):
        eng = Engine()
        hits = []
        eng.post(0.0, lambda: hits.append("now"))
        eng.post(1e300, lambda: hits.append("later"))
        eng.run()
        assert hits == ["now", "later"]
