"""True-parallel engine: localities as real OS processes.

Everything else in :mod:`repro.amt` runs on the deterministic discrete-event
clock — localities are simulated, and every measured speedup so far is a
vectorization win on one OS thread.  This module is the second engine
implementation behind the same API shape: a :class:`ParallelEngine` maps
each locality to a **forked worker process** (:class:`ParallelLocality`),
with

* a duplex pipe per worker as the control plane (commands down, replies
  up — the "small control message" of the paper's local-communication
  optimization),
* shared-memory arenas (:mod:`repro.amt.shm`) as the data plane: the
  parent adopts mesh storage into a ``/dev/shm`` segment *before* forking,
  so the workers' inherited numpy views alias the same physical pages and
  ghost exchange becomes a shm write plus a control round-trip,
* bulk-synchronous rounds (:meth:`ParallelEngine.round`) as the barrier
  primitive: the parent broadcasts one command, every worker executes it
  and replies, and the gather is the barrier.

The DES engine stays the bit-exact oracle: the one consumer (the process
hydro executor) runs the same kernels on the same arenas, so the
cross-check harness can assert ``np.array_equal`` between backends.

Failure semantics are typed, mirroring the validation contract of
:meth:`repro.amt.engine.Engine.post`: non-finite or non-positive timeouts
and bad worker counts are rejected at construction, a worker that raises
surfaces as :class:`WorkerError` carrying the remote traceback, and a
worker that dies (the ``FaultSpec`` crash fate, a kill, an ``os._exit``)
surfaces as :class:`WorkerCrashError` — a subclass of
:class:`repro.resilience.faults.UnrecoverableFault`, so the driver's
checkpoint-rollback machinery applies unchanged.

Workers terminate through ``os._exit`` on purpose: a forked child inherits
the parent's ``atexit`` hooks, including the shm-unlink guard, and must
not run them (the guard's PID check is the second line of defence).
"""

from __future__ import annotations

import math
import multiprocessing
import numbers
import os
import time
import traceback
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.profiling.apex import CounterRegistry
from repro.resilience.faults import UnrecoverableFault

#: A worker handler: called once per command, returns the reply payload.
Handler = Callable[[Any], Any]
#: Builds the handler inside the child after fork:
#: (rank, registry, link) -> handler.  The :class:`WorkerLink` is how a
#: handler takes part in dependency-grained rounds
#: (:meth:`ParallelEngine.round_async`).
HandlerFactory = Callable[[int, CounterRegistry, "WorkerLink"], Handler]

#: Reserved control commands (never passed to the handler).
_STOP = "__stop__"
_CRASH = "__crash__"
_TIMERS = "__timers__"
#: Wire tags of the dependency-grained round protocol (see round_async).
_NOTE = "note"
_ROUTE = "__route__"


class WorkerError(RuntimeError):
    """A worker's handler raised; carries the remote traceback."""

    def __init__(self, rank: int, remote_traceback: str) -> None:
        self.rank = rank
        self.remote_traceback = remote_traceback
        super().__init__(
            f"worker {rank} raised:\n{remote_traceback.rstrip()}"
        )


class WorkerCrashError(UnrecoverableFault):
    """A worker process died mid-round (crash fate, kill, lost pipe).

    Subclasses :class:`UnrecoverableFault` so the resilient driver loop
    treats a real dead process exactly like a modelled node crash:
    rollback to the last checkpoint and replay.
    """

    def __init__(self, ranks: Sequence[int], detail: str = "") -> None:
        self.ranks = tuple(ranks)
        msg = f"worker process(es) {list(self.ranks)} died"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class WorkerTimeoutError(UnrecoverableFault):
    """A round did not complete within the engine timeout."""

    def __init__(self, ranks: Sequence[int], timeout: float) -> None:
        self.ranks = tuple(ranks)
        super().__init__(
            f"worker(s) {list(self.ranks)} did not reply within {timeout:g}s"
        )


class ParallelLocality:
    """One worker process plus the parent end of its control pipe."""

    def __init__(self, rank: int, process, conn) -> None:  # noqa: ANN001
        self.rank = rank
        self.process = process
        self.conn = conn

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, command: Any) -> None:
        try:
            self.conn.send(command)
        except (BrokenPipeError, OSError):
            # The worker died; gather() reports it as a WorkerCrashError
            # (dropping the send here keeps the barrier the single point
            # where crashes surface, matching the DES crash-fate path).
            pass

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"ParallelLocality(rank={self.rank}, pid={self.process.pid}, {state})"


def _timer_snapshot(registry: CounterRegistry) -> Dict[str, Tuple[int, float, float]]:
    """(count, total, max) per counter — the wire form of a registry."""
    out = {}
    for name in registry.names():
        counter = registry.get(name)
        out[name] = (counter.count, counter.total, counter.maximum)
    return out


class WorkerLink:
    """The worker-side end of a dependency-grained round.

    Inside a :meth:`ParallelEngine.round_async` handler the link is the
    futurization primitive: ``note`` posts a mid-round message to the
    parent *without* ending the round (the worker keeps computing), and
    ``wait`` blocks until the parent routes a message with the given tag
    back — a message-grained happens-before edge instead of a barrier.
    Routed messages arriving out of order are buffered per tag, so a
    worker can keep computing past payloads it has not asked for yet.
    """

    def __init__(self, conn) -> None:  # noqa: ANN001
        self._conn = conn
        self._pending: Dict[Any, deque] = {}

    def note(self, tag: Any, payload: Any = None) -> None:
        """Post a mid-round message; the parent's ``on_note`` sees it."""
        self._conn.send((_NOTE, tag, payload))

    def stash(self, tag: Any, payload: Any) -> None:
        self._pending.setdefault(tag, deque()).append(payload)

    def wait(self, tag: Any) -> Any:
        """Block until the parent routes a message tagged ``tag``."""
        queue = self._pending.get(tag)
        if queue:
            return queue.popleft()
        while True:
            message = self._conn.recv()
            if isinstance(message, tuple) and len(message) == 3 \
                    and message[0] == _ROUTE:
                if message[1] == tag:
                    return message[2]
                self.stash(message[1], message[2])
                continue
            raise RuntimeError(
                f"protocol violation: expected a routed message, got "
                f"{type(message).__name__}"
            )


def _worker_main(rank: int, factory: HandlerFactory, conn) -> None:  # noqa: ANN001
    """Child main loop: execute commands until told to stop.

    Every exit path goes through ``os._exit`` so the child never runs the
    atexit hooks it inherited from the parent (notably the shm unlink
    guard — see the module docstring).
    """
    registry = CounterRegistry()
    try:
        link = WorkerLink(conn)
        handler = factory(rank, registry, link)
        while True:
            command = conn.recv()
            if isinstance(command, tuple) and len(command) == 3 \
                    and command[0] == _ROUTE:
                # A routed payload the handler did not wait for before
                # replying; keep it for the next round's first wait.
                link.stash(command[1], command[2])
                continue
            if command == _STOP:
                conn.send(("ok", None))
                break
            if command == _CRASH:
                # The FaultSpec crash fate made real: die without a reply,
                # without cleanup, mid-protocol.
                os._exit(1)
            if command == _TIMERS:
                snapshot = _timer_snapshot(registry)
                registry.reset()
                conn.send(("ok", snapshot))
                continue
            try:
                result = handler(command)
            except BaseException:  # noqa: BLE001 - ship the traceback home
                conn.send(("err", traceback.format_exc()))
                continue
            conn.send(("ok", result))
    except (EOFError, KeyboardInterrupt, BrokenPipeError):
        pass
    finally:
        os._exit(0)


class ParallelEngine:
    """A pool of forked worker localities driven in BSP rounds.

    Parameters
    ----------
    nprocs:
        Number of worker processes (``>= 1``).  Rejected with a typed
        error when not a positive integer — the same validation posture
        :meth:`repro.amt.engine.Engine.post` takes on delays.
    timeout:
        Per-round reply deadline in seconds.  Must be finite and positive:
        a NaN timeout would make every ``poll`` return instantly and spin,
        exactly the class of silent corruption the DES engine's NaN-delay
        guard rejects at the door.
    """

    def __init__(self, nprocs: int, timeout: float = 120.0) -> None:
        if isinstance(nprocs, bool) or not isinstance(nprocs, numbers.Integral):
            raise TypeError(
                f"nprocs must be an integer, got {type(nprocs).__name__}"
            )
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        if isinstance(timeout, bool) or not isinstance(timeout, numbers.Real):
            raise TypeError(
                f"timeout must be a real number, got {type(timeout).__name__}"
            )
        if not math.isfinite(timeout):
            raise ValueError(f"non-finite timeout: {timeout}")
        if timeout <= 0:
            raise ValueError(f"non-positive timeout: {timeout}")
        self.nprocs = int(nprocs)
        self.timeout = float(timeout)
        self.localities: List[ParallelLocality] = []
        self.rounds = 0
        self.control_messages = 0
        #: Invoked after every completed barrier, while all workers are
        #: parked waiting for the next command — the safe window for the
        #: shm race detector (:mod:`repro.analysis.shmrace`) to drain and
        #: reset the shared event log.
        self.round_observer: Optional[Callable[[], None]] = None
        self._ctx = multiprocessing.get_context("fork")

    # -- lifecycle ------------------------------------------------------------
    @property
    def started(self) -> bool:
        return bool(self.localities)

    def start(self, factory: HandlerFactory) -> None:
        """Fork the workers.  ``factory(rank, registry, link)`` runs *in
        the child* and returns the command handler, so everything the parent
        set up before this call (mesh, plans, shm views) is inherited."""
        if self.started:
            raise RuntimeError("engine already started")
        for rank in range(self.nprocs):
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            process = self._ctx.Process(
                target=_worker_main,
                args=(rank, factory, child_conn),
                daemon=True,
                name=f"repro-locality-{rank}",
            )
            process.start()
            child_conn.close()
            self.localities.append(ParallelLocality(rank, process, parent_conn))

    def shutdown(self) -> None:
        """Stop every worker (graceful, then terminate) and forget them."""
        for loc in self.localities:
            try:
                if loc.alive:
                    loc.send(_STOP)
            except (BrokenPipeError, OSError):
                pass
        for loc in self.localities:
            try:
                if loc.conn.poll(1.0):
                    loc.conn.recv()
            except (EOFError, BrokenPipeError, OSError):
                pass
            loc.process.join(timeout=1.0)
            if loc.alive:
                loc.process.terminate()
                loc.process.join(timeout=1.0)
            loc.conn.close()
        self.localities = []

    def crash(self, rank: int) -> None:
        """Make worker ``rank`` die mid-protocol (the crash fate)."""
        loc = self.localities[rank]
        loc.send(_CRASH)
        loc.process.join(timeout=self.timeout)

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc) -> None:  # noqa: ANN002
        self.shutdown()

    # -- BSP rounds -----------------------------------------------------------
    def send(self, rank: int, command: Any) -> None:
        """Send one command to one worker (reply collected by ``gather``)."""
        self.localities[rank].send(command)
        self.control_messages += 1

    def broadcast(self, command: Any) -> None:
        for loc in self.localities:
            loc.send(command)
        self.control_messages += len(self.localities)

    def gather(self) -> List[Any]:
        """Collect one reply per worker; the barrier of a BSP round.

        Raises :class:`WorkerError` (handler raised remotely),
        :class:`WorkerCrashError` (process died) or
        :class:`WorkerTimeoutError` (deadline passed), naming the ranks.
        """
        results: List[Any] = []
        error: Optional[WorkerError] = None
        dead: List[int] = []
        stalled: List[int] = []
        for rank, loc in enumerate(self.localities):
            try:
                if not loc.conn.poll(self.timeout):
                    if loc.alive:
                        stalled.append(rank)
                    else:
                        dead.append(rank)
                    results.append(None)
                    continue
                status, payload = loc.conn.recv()
            except (EOFError, BrokenPipeError, ConnectionResetError):
                dead.append(rank)
                results.append(None)
                continue
            self.control_messages += 1
            if status == "err":
                error = error or WorkerError(rank, payload)
                results.append(None)
            else:
                results.append(payload)
        if dead:
            raise WorkerCrashError(dead)
        if stalled:
            raise WorkerTimeoutError(stalled, self.timeout)
        if error is not None:
            raise error
        return results

    def round(self, command: Any) -> List[Any]:
        """One BSP round: broadcast, then barrier on all replies.

        When a :attr:`round_observer` is set it runs after the barrier —
        every worker has replied and is blocked on its next ``recv``, so
        the observer sees a quiescent shared-memory state.
        """
        self.broadcast(command)
        self.rounds += 1
        results = self.gather()
        if self.round_observer is not None:
            self.round_observer()
        return results

    def round_async(
        self,
        command: Any,
        on_note: Optional[Callable[[int, Any, Any], Any]] = None,
    ) -> List[Any]:
        """One dependency-grained round: per-message progress, late barrier.

        Broadcasts ``command`` like :meth:`round`, but instead of blocking
        on the replies in rank order it interleaves **mid-round notes**
        with the final replies as they arrive.  A worker posts a note via
        its :class:`WorkerLink` (``link.note(tag, payload)``) and keeps
        computing; the parent delivers it to ``on_note(rank, tag,
        payload)`` immediately.  ``on_note`` may return an iterable of
        ``(rank, tag, payload)`` route messages, which the engine forwards
        to the named workers' links — each forwarded message is one
        message-grained happens-before edge (the overlap schedule's
        replacement for the barrier; the shm race detector is told about
        exactly these edges).  The barrier degenerates to the end of the
        round: every worker still sends one final ``("ok", result)``
        before the method returns, so the :attr:`round_observer` still
        sees a quiescent state.

        Failure semantics match :meth:`round` — remote raise →
        :class:`WorkerError`, dead process → :class:`WorkerCrashError`,
        deadline → :class:`WorkerTimeoutError` — except that a remote
        raise or a death ends the round at once: the failed worker's peers
        may be blocked in ``link.wait`` on a route that now never comes,
        so waiting for them would only turn the real error into a timeout
        naming the healthy ranks.  The pool is not reusable afterwards.
        """
        from multiprocessing import connection as mp_connection

        self.broadcast(command)
        self.rounds += 1
        n = len(self.localities)
        results: List[Any] = [None] * n
        done = [False] * n
        dead: List[int] = []
        conn_rank = {self.localities[r].conn: r for r in range(n)}
        deadline = time.monotonic() + self.timeout
        while not all(done):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                undone = [r for r in range(n) if not done[r]]
                stalled = [r for r in undone if self.localities[r].alive]
                late_dead = [r for r in undone if not self.localities[r].alive]
                if late_dead:
                    raise WorkerCrashError(late_dead)
                raise WorkerTimeoutError(stalled, self.timeout)
            ready = mp_connection.wait(
                [self.localities[r].conn for r in range(n) if not done[r]],
                timeout=min(remaining, 0.25),
            )
            for conn in ready:
                rank = conn_rank[conn]
                try:
                    message = conn.recv()
                except (EOFError, BrokenPipeError, ConnectionResetError):
                    done[rank] = True
                    dead.append(rank)
                    continue
                self.control_messages += 1
                if isinstance(message, tuple) and len(message) == 3 \
                        and message[0] == _NOTE:
                    if on_note is not None:
                        routes = on_note(rank, message[1], message[2])
                        for to_rank, tag, payload in routes or ():
                            self.localities[to_rank].send(
                                (_ROUTE, tag, payload)
                            )
                            self.control_messages += 1
                    continue
                status, payload = message
                if status == "err":
                    raise WorkerError(rank, payload)
                done[rank] = True
                results[rank] = payload
            if dead:
                raise WorkerCrashError(dead)
        if self.round_observer is not None:
            self.round_observer()
        return results

    # -- timers ---------------------------------------------------------------
    def harvest_timers(self, registry: CounterRegistry) -> Dict[str, float]:
        """Pull per-worker timer snapshots and aggregate into ``registry``.

        Every worker-side timer ``name`` lands twice: ``name`` records
        the **max** total across workers (the critical-path time a profile
        should compare against the single-process backend) and
        ``name.workers_mean`` the mean (the balance check).  Plan
        construction counters (``plan.*``) are **event counts**, not
        critical-path timers: collapsing them to one max-sample per
        harvest used to drop both the build count and the per-worker sum,
        so they are instead merged losslessly
        (:meth:`~repro.profiling.apex.CounterRegistry.absorb`) — the
        driver registry's ``count()``/``total()`` keep exact build-event
        semantics alongside ``hydro.*``/``fmm.*``.  Returns the
        max-per-name map.
        """
        snapshots = self.round(_TIMERS)
        names = sorted({name for snap in snapshots for name in snap})
        maxima: Dict[str, float] = {}
        for name in names:
            stats = [snap.get(name, (0, 0.0, 0.0)) for snap in snapshots]
            totals = [s[1] for s in stats]
            peak = max(totals)
            maxima[name] = peak
            if name.startswith("plan."):
                for count, total, max_sample in stats:
                    registry.absorb(name, count, total, max_sample)
            else:
                registry.sample(name, peak)
                registry.sample(f"{name}.workers_mean", sum(totals) / len(totals))
        return maxima
