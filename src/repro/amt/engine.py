"""Deterministic discrete-event engine (the virtual clock).

Every component of the runtime — worker pools, the network, timers — posts
events here.  Events are ordered by ``(time, sequence)``; the sequence number
makes simultaneous events deterministic (FIFO in posting order), which in
turn makes every schedule in the reproduction bit-reproducible.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Tuple


class Engine:
    """A minimal, fast event loop over virtual time (seconds)."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, Callable[[], Any]]] = []
        self._seq = 0
        self._now = 0.0
        self._running = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def post(self, delay: float, fn: Callable[[], Any]) -> None:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if not math.isfinite(delay):
            # nan/inf heappush fine but then poison the heap invariant
            # (nan compares false both ways), corrupting event order for
            # every later event — reject at the door instead.
            raise ValueError(f"non-finite delay: {delay}")
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        heapq.heappush(self._queue, (self._now + delay, self._seq, fn))
        self._seq += 1

    def post_at(self, time: float, fn: Callable[[], Any]) -> None:
        """Schedule ``fn`` at an absolute virtual time (>= now)."""
        if not math.isfinite(time):
            raise ValueError(f"non-finite time: {time}")
        if time < self._now:
            raise ValueError(f"cannot post into the past: {time} < {self._now}")
        heapq.heappush(self._queue, (time, self._seq, fn))
        self._seq += 1

    def empty(self) -> bool:
        return not self._queue

    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        if not self._queue:
            return False
        self._now, _seq, fn = heapq.heappop(self._queue)
        fn()
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event queue.

        ``until`` stops the clock at a virtual time (events beyond it stay
        queued); ``max_events`` bounds the number of events (a runaway-loop
        backstop).  Returns the final virtual time.
        """
        if self._running:
            raise RuntimeError("Engine.run() is not reentrant")
        self._running = True
        try:
            processed = 0
            while self._queue:
                if until is not None and self._queue[0][0] > until:
                    self._now = until
                    break
                if max_events is not None and processed >= max_events:
                    break
                self.step()
                processed += 1
        finally:
            self._running = False
        return self._now

    def reset(self) -> None:
        """Clear all state; used between independent simulations."""
        self._queue.clear()
        self._seq = 0
        self._now = 0.0
