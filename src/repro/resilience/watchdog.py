"""Deadlock watchdog: a quiesced-but-unfinished runtime becomes a diagnosis.

The paper's hangs were undebugable precisely because a wedged AMT run looks
like a slow one: every worker idle, no progress, no error.  In the virtual
runtime the condition is crisp — the event queue has drained but pending
futures remain — and the dependency edges registered here (or gathered from
worker pools' waiting tasks) let the watchdog walk from the step's final
future down to the root stalled future and name the whole chain in a typed
:class:`DeadlockError`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.amt.future import Future


class DeadlockError(RuntimeError):
    """The runtime quiesced with pending futures — a deadlock.

    ``chain`` names the stalled dependency chain outermost-first: the
    step's final future down to the root future nobody will ever resolve
    (typically a ghost message the network dropped).
    """

    def __init__(self, message: str, chain: Tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.chain = tuple(chain)


class DeadlockWatchdog:
    """Tracks future→dependency edges and diagnoses a quiesced runtime.

    Two ways to feed it:

    * explicitly — ``watch(future, deps, name)`` as the task graph is
      spawned (what :meth:`TaskGraphSimulator.run_step` does);
    * as a :class:`~repro.amt.scheduler.WorkerPool` observer — it records
      ``on_submit`` edges, so any pool-driven run gets coverage for free.

    ``diagnose`` never raises; it *returns* the :class:`DeadlockError` so
    the caller controls the raise site (and traceback).
    """

    def __init__(self, runtime: Any = None) -> None:
        self.runtime = runtime
        self.trips = 0
        self._edges: Dict[int, Tuple[Future, Tuple[Future, ...], str]] = {}

    # -- registration -------------------------------------------------------
    def watch(
        self,
        future: Future,
        deps: Iterable[Future] = (),
        name: Optional[str] = None,
    ) -> None:
        self._edges[id(future)] = (
            future,
            tuple(deps),
            name or future.name or f"future@{id(future):x}",
        )

    # -- WorkerPool observer protocol --------------------------------------
    def on_submit(self, task: Any, deps: Iterable[Future]) -> None:
        self.watch(task.future, deps, task.name)

    def on_start(self, task: Any) -> None:  # pragma: no cover - no-op
        pass

    def on_executed(self, task: Any) -> None:  # pragma: no cover - no-op
        pass

    def on_finish(self, task: Any) -> None:  # pragma: no cover - no-op
        pass

    # -- diagnosis ----------------------------------------------------------
    def pending(self) -> List[Tuple[Future, str]]:
        return [
            (future, name)
            for future, _deps, name in self._edges.values()
            if not future.is_ready()
        ]

    def _walk(
        self, final: Optional[Future] = None
    ) -> Tuple[Tuple[str, ...], Optional[Future]]:
        start = final
        if start is None or id(start) not in self._edges:
            pending = self.pending()
            if final is not None:
                # An unwatched final future: show it, then descend into the
                # deepest watched pending future.
                prefix: Tuple[str, ...] = (final.name or "final",)
            else:
                prefix = ()
            if not pending:
                return prefix, final
            start = pending[0][0]
        else:
            prefix = ()

        chain: List[str] = list(prefix)
        seen = set()
        cursor: Optional[Future] = start
        root: Optional[Future] = start
        while cursor is not None and id(cursor) not in seen:
            seen.add(id(cursor))
            _future, deps, name = self._edges.get(
                id(cursor), (cursor, (), cursor.name or "future")
            )
            chain.append(name)
            root = cursor
            cursor = next((d for d in deps if not d.is_ready()), None)
        return tuple(chain), root

    def diagnose(self, final: Optional[Future] = None) -> DeadlockError:
        """Build the typed error for a quiesced-but-unfinished runtime."""
        self.trips += 1
        chain, root_future = self._walk(final)
        pending_count = len(self.pending())
        waiting = self._pool_waiting()
        root = chain[-1] if chain else "unknown"
        parts = [
            f"deadlock: runtime quiesced with {pending_count} pending future(s); "
            f"stalled chain: {' <- '.join(chain) if chain else '(none watched)'}"
        ]
        parts.append(f"root stall: {root!r} — its completion event was never scheduled "
                     "(a lost ghost message stalls the dependency graph exactly "
                     "like the paper's Fugaku/Ookami hangs)")
        # Under the race detector (every DES driver step) futures carry the
        # happens-before provenance clock: report how much completed work
        # the stalled future transports — the depth of the wedged chain.
        origin = getattr(root_future, "_origin", 0)
        if origin:
            parts.append(
                f"provenance: the root future's origin clock carries "
                f"{bin(origin).count('1')} upstream task bit(s) "
                "(repro.analysis happens-before provenance)"
            )
        if waiting:
            shown = ", ".join(waiting[:5])
            more = f" (+{len(waiting) - 5} more)" if len(waiting) > 5 else ""
            parts.append(f"tasks blocked on unready dependencies: {shown}{more}")
        return DeadlockError("\n".join(parts), chain=chain)

    def _pool_waiting(self) -> List[str]:
        """Names of tasks sitting in worker-pool dependency wait."""
        if self.runtime is None:
            return []
        out: List[str] = []
        for locality in getattr(self.runtime, "localities", []):
            waiting = getattr(locality.pool, "waiting_tasks", None)
            if waiting is None:
                continue
            for task, unready in waiting():
                dep_names = ",".join(d.name or "?" for d in unready) or "?"
                out.append(f"{task.name}[waiting on {dep_names}]")
        return out
