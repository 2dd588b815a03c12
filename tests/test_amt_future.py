"""Future/promise semantics."""

import pytest

from repro.amt.future import (
    Future,
    FutureError,
    Promise,
    make_ready_future,
    when_all,
)


def then(future, fn):
    """A synchronous continuation built on ``add_done_callback``: ``fn``
    gets the value, and an exception (stored or raised) is transported to
    the returned future."""
    result = Future(name=f"{future.name}.then")

    def run(f):
        if f.has_exception():
            result._set_exception(f._exception)
            return
        try:
            result._set_value(fn(f.get()))
        except Exception as exc:  # noqa: BLE001 - the future transports it
            result._set_exception(exc)

    future.add_done_callback(run)
    return result


class TestFutureBasics:
    def test_pending_get_raises(self):
        with pytest.raises(FutureError):
            Future().get()

    def test_ready_future(self):
        f = make_ready_future(42)
        assert f.is_ready()
        assert f.get() == 42

    def test_promise_resolves(self):
        p = Promise()
        f = p.get_future()
        assert not f.is_ready()
        p.set_value("done")
        assert f.get() == "done"

    def test_double_set_rejected(self):
        p = Promise()
        p.set_value(1)
        with pytest.raises(FutureError):
            p.set_value(2)

    def test_exception_transport(self):
        p = Promise()
        p.get_future()._set_exception(ValueError("boom"))
        f = p.get_future()
        assert f.has_exception()
        with pytest.raises(ValueError, match="boom"):
            f.get()

    def test_repr_states(self):
        assert "pending" in repr(Future(name="x"))
        assert "ready" in repr(make_ready_future(1))


class TestContinuations:
    def test_then_on_ready(self):
        f = then(make_ready_future(10), lambda v: v * 2)
        assert f.get() == 20

    def test_then_on_pending(self):
        p = Promise()
        f = then(p.get_future(), lambda v: v + 1)
        p.set_value(1)
        assert f.get() == 2

    def test_then_chains(self):
        f = then(then(make_ready_future(1), lambda v: v + 1), lambda v: v * 10)
        assert f.get() == 20

    def test_then_propagates_exception(self):
        p = Promise()
        calls = []
        f = then(p.get_future(), lambda v: calls.append(v))
        p.get_future()._set_exception(RuntimeError("nope"))
        assert f.has_exception()
        assert calls == []

    def test_then_captures_raised_exception(self):
        f = then(make_ready_future(0), lambda v: 1 / v)
        with pytest.raises(ZeroDivisionError):
            f.get()

    def test_callbacks_fire_in_order(self):
        p = Promise()
        order = []
        p.get_future().add_done_callback(lambda _f: order.append(1))
        p.get_future().add_done_callback(lambda _f: order.append(2))
        p.set_value(None)
        assert order == [1, 2]


class TestWhenAll:
    def test_empty(self):
        assert when_all([]).get() == []

    def test_values_in_order(self):
        p1, p2 = Promise(), Promise()
        combined = when_all([p1.get_future(), p2.get_future()])
        p2.set_value("b")
        assert not combined.is_ready()
        p1.set_value("a")
        assert combined.get() == ["a", "b"]

    def test_with_ready_inputs(self):
        assert when_all([make_ready_future(i) for i in range(5)]).get() == list(range(5))

    def test_exception_propagates(self):
        p1, p2 = Promise(), Promise()
        combined = when_all([p1.get_future(), p2.get_future()])
        p1.get_future()._set_exception(ValueError("x"))
        p2.set_value(1)
        with pytest.raises(ValueError):
            combined.get()
