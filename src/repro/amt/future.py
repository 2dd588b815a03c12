"""Futures and promises with continuation support.

These mirror ``hpx::future`` / ``hpx::promise``: a future is a read handle on
a value produced asynchronously; ``then`` attaches continuations;
``when_all`` composes futures.  Values resolve during a
discrete-event run, so ``get()`` is only legal on a ready future (there is no
blocking — blocking a virtual-time worker would deadlock the simulation,
exactly as blocking an HPX worker thread can).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional


class FutureError(RuntimeError):
    """Raised for invalid future usage (double-set, get-before-ready...)."""


class Future:
    """A single-assignment value container with continuations.

    Continuations attached via :meth:`add_done_callback` fire exactly once,
    in attachment order, when the future becomes ready.  If the future is
    already ready they fire immediately.
    """

    __slots__ = ("_ready", "_value", "_exception", "_callbacks", "name", "_origin")

    def __init__(self, name: str = "") -> None:
        self._ready = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["Future"], None]] = []
        self.name = name
        #: Happens-before provenance: a bitmask clock of the tasks whose
        #: completion this future transports (see repro.analysis.race).
        #: 0 means "no causality information"; composition (then/when_all)
        #: merges origins so dataflow chains carry ordering.
        self._origin = 0

    # -- state ----------------------------------------------------------
    def is_ready(self) -> bool:
        return self._ready

    def has_exception(self) -> bool:
        return self._ready and self._exception is not None

    def get(self) -> Any:
        """Return the value; raises the stored exception if one was set."""
        if not self._ready:
            raise FutureError(
                f"get() on future {self.name!r} that is not ready; in a "
                "virtual-time runtime use add_done_callback() instead of blocking"
            )
        if self._exception is not None:
            raise self._exception
        return self._value

    # -- resolution (used by Promise / the scheduler) ---------------------
    def _set_value(self, value: Any) -> None:
        if self._ready:
            raise FutureError(f"future {self.name!r} already resolved")
        self._ready = True
        self._value = value
        self._fire()

    def _set_exception(self, exc: BaseException) -> None:
        if self._ready:
            raise FutureError(f"future {self.name!r} already resolved")
        self._ready = True
        self._exception = exc
        self._fire()

    def _fire(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    # -- composition -----------------------------------------------------
    def add_done_callback(self, fn: Callable[["Future"], None]) -> None:
        if self._ready:
            fn(self)
        else:
            self._callbacks.append(fn)

    def __repr__(self) -> str:
        state = "ready" if self._ready else "pending"
        if self.has_exception():
            state = f"exception:{type(self._exception).__name__}"
        return f"<Future {self.name!r} {state}>"


class Promise:
    """Write side of a future, mirroring ``hpx::promise``."""

    __slots__ = ("_future",)

    def __init__(self, name: str = "") -> None:
        self._future = Future(name=name)

    def get_future(self) -> Future:
        return self._future

    def set_value(self, value: Any = None) -> None:
        self._future._set_value(value)


def make_ready_future(value: Any = None, name: str = "") -> Future:
    """A future that is already resolved (``hpx::make_ready_future``)."""
    f = Future(name=name)
    f._set_value(value)
    return f


def when_all(futures: Iterable[Future]) -> Future:
    """Future of the list of values, ready when every input is ready.

    If any input carries an exception, the first such exception (in input
    order of resolution) is propagated.
    """
    futures = list(futures)
    result = Future(name="when_all")
    if not futures:
        result._set_value([])
        return result

    remaining = [len(futures)]

    def on_done(_f: Future) -> None:
        remaining[0] -= 1
        if remaining[0] == 0 and not result.is_ready():
            for f in futures:
                result._origin |= f._origin
            for f in futures:
                if f._exception is not None:
                    result._set_exception(f._exception)
                    return
            result._set_value([f._value for f in futures])

    for f in futures:
        f.add_done_callback(on_done)
    return result
