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
  parent maps its ``/dev/shm`` segments *before* forking and adopts mesh
  storage into them after, so the workers' views alias the same physical
  pages and ghost exchange becomes a shm write plus a control round-trip
  (the plan itself reaches each worker as a slice over its pipe),
* one round primitive (:meth:`ParallelEngine.round`): the parent
  broadcasts one command, every worker executes it and replies, and the
  parent collects the replies together with any mid-round notes, routing
  messages between workers as the round's dependencies require — the
  end of the round is the only barrier.

The DES engine stays the bit-exact oracle: the one consumer (the process
hydro executor) runs the same kernels on the same arenas, so the
cross-check harness can assert ``np.array_equal`` between backends.

Failure semantics are typed, mirroring the validation contract of
:meth:`repro.amt.engine.Engine.post`: non-finite or non-positive timeouts
and bad worker counts are rejected at construction, a worker that raises
surfaces as :class:`WorkerError` carrying the remote traceback, a worker
that dies (the crash fate, a kill, an ``os._exit``)
surfaces as :class:`WorkerCrashError` — a subclass of
:class:`repro.resilience.faults.UnrecoverableFault`, so the driver's
checkpoint-rollback machinery applies unchanged — and a round on an
engine without workers raises :class:`EngineNotStartedError`.

Workers terminate through ``os._exit`` on purpose: a forked child inherits
the parent's ``atexit`` hooks, including the shm-unlink guard, and must
not run them (the guard's PID check is the second line of defence).
"""

from __future__ import annotations

import math
import multiprocessing
import multiprocessing.connection
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
#: handler posts mid-round notes and waits for routed messages.
HandlerFactory = Callable[[int, CounterRegistry, "WorkerLink"], Handler]
#: The parent's view of a mid-round note: (rank, tag, payload) -> routes,
#: an iterable of (rank, tag, payload) messages to forward (or None).
NoteHandler = Callable[[int, Any, Any], Any]

#: Reserved control commands (never passed to the handler).
_STOP = "__stop__"
_CRASH = "__crash__"
_TIMERS = "__timers__"
#: Wire tags of mid-round messages: worker -> parent, parent -> worker.
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
    rolls back to the last checkpoint and replays.
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


class EngineNotStartedError(RuntimeError):
    """A round on an engine without workers.

    The engine was never started, was shut down, or was stopped by an
    earlier round that ended early."""


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
            # (dropping the send here keeps the end of the round the single
            # point where crashes surface, matching the DES crash-fate path).
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
    """The worker-side end of a round's mid-round messages.

    Inside a handler the link is the futurization primitive: ``note``
    posts a mid-round message to the parent *without* ending the round
    (the worker keeps computing), and
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
    """A pool of forked worker localities driven in rounds.

    Parameters
    ----------
    nprocs:
        Number of worker processes (``>= 1``).  Rejected with a typed
        error when not a positive integer — the same validation posture
        :meth:`repro.amt.engine.Engine.post` takes on delays.
    timeout:
        Per-round reply deadline in seconds.  Must be finite and positive:
        a NaN timeout would make every ``wait`` return instantly and spin,
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
        #: Invoked after every completed round, while all workers are
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
        the child* and returns the command handler; whatever the parent
        holds at this call (shm mappings, but also its whole heap) is inherited."""
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

    def _stop(self) -> None:
        """End the pool after a round that ended early.  The workers'
        protocol state is unknown (a peer may be parked in ``link.wait``
        for a route that never comes), so they are terminated, not asked."""
        for loc in self.localities:
            if loc.alive:
                loc.process.terminate()
        for loc in self.localities:
            loc.process.join(timeout=1.0)
            loc.conn.close()
        self.localities = []

    def crash(self, rank: int) -> None:  # reprolint: sanctioned-chaos (real-worker crash tests)
        """Make worker ``rank`` die mid-protocol (the crash fate)."""
        loc = self.localities[rank]
        loc.send(_CRASH)
        loc.process.join(timeout=self.timeout)

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc) -> None:  # noqa: ANN002
        self.shutdown()

    # -- rounds ---------------------------------------------------------------
    def send(self, rank: int, command: Any) -> None:
        """Send one command to one worker (reply collected by ``gather``)."""
        self.localities[rank].send(command)
        self.control_messages += 1

    def broadcast(self, command: Any) -> None:
        for loc in self.localities:
            loc.send(command)
        self.control_messages += len(self.localities)

    def gather(self, on_note: Optional[NoteHandler] = None) -> List[Any]:
        """Collect one reply per worker: the end of a round.

        Replies and mid-round notes are taken as they arrive, against one
        deadline for the whole round.  A worker posts a note through its
        :class:`WorkerLink` and keeps computing; ``on_note(rank, tag,
        payload)`` sees it at once and may return ``(rank, tag, payload)``
        routes, which are forwarded to the named workers' links — each one
        a message-grained happens-before edge (the shm race detector is
        told about exactly these).  Without ``on_note`` notes are dropped.

        Every gather counts in :attr:`rounds`; a completed one runs the
        :attr:`round_observer` while all workers are parked.  Failures:

        * a remote raise without ``on_note``: the other replies are
          drained, then :class:`WorkerError` (lowest failing rank) is
          raised and the pool stays usable;
        * any other early end — a remote raise with ``on_note``, a death
          (:class:`WorkerCrashError`), the deadline
          (:class:`WorkerTimeoutError`) — stops every worker, then raises
          naming the ranks; a later round raises
          :class:`EngineNotStartedError` instead of reading this round's
          late replies.
        """
        if not self.started:
            raise EngineNotStartedError("the engine has no workers")
        self.rounds += 1
        pending = {loc.conn: rank for rank, loc in enumerate(self.localities)}
        results: List[Any] = [None] * len(pending)
        errors: Dict[int, str] = {}
        deadline = time.monotonic() + self.timeout
        while pending:
            remaining = deadline - time.monotonic()
            ready = multiprocessing.connection.wait(
                list(pending), timeout=max(remaining, 0.0)
            )
            if not ready:
                late = sorted(pending.values())
                dead = [r for r in late if not self.localities[r].alive]
                self._stop()
                if dead:
                    raise WorkerCrashError(dead)
                raise WorkerTimeoutError(late, self.timeout)
            dead = []
            for conn in ready:
                rank = pending[conn]
                try:
                    message = conn.recv()
                except (EOFError, BrokenPipeError, ConnectionResetError):
                    del pending[conn]
                    dead.append(rank)
                    continue
                self.control_messages += 1
                if message[0] == _NOTE:
                    routes = on_note(rank, *message[1:]) if on_note else None
                    for to_rank, tag, payload in routes or ():
                        self.send(to_rank, (_ROUTE, tag, payload))
                    continue
                del pending[conn]
                status, payload = message
                if status == "err":
                    errors[rank] = payload
                else:
                    results[rank] = payload
            if dead:
                self._stop()
                raise WorkerCrashError(sorted(dead))
            if errors and on_note is not None:
                self._stop()
                rank = min(errors)
                raise WorkerError(rank, errors[rank])
        if errors:
            rank = min(errors)
            raise WorkerError(rank, errors[rank])
        if self.round_observer is not None:
            self.round_observer()
        return results

    def round(
        self, command: Any, on_note: Optional[NoteHandler] = None
    ) -> List[Any]:
        """One round: :meth:`broadcast` ``command``, then :meth:`gather`
        the replies (routing mid-round notes through ``on_note``)."""
        self.broadcast(command)
        return self.gather(on_note)

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
