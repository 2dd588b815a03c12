"""SharedMemory lifecycle guard: /dev/shm segments that cannot leak.

The process backend (:mod:`repro.amt.parallel`) backs its flat storage
arenas with POSIX shared memory so forked worker processes see the same
pages the parent adopted into the mesh.  A raw
:class:`multiprocessing.shared_memory.SharedMemory` has two classic leak
modes this module closes:

* the creating process dies (or raises) before calling ``unlink`` — the
  segment outlives the whole process tree in ``/dev/shm``;
* a forked child inherits the parent's cleanup hooks and runs them on
  exit, unlinking a segment the parent still uses.

:class:`ShmArena` is a context manager whose creating process registers
every live segment in a module table drained by an ``atexit`` hook.  The
table records the creator's PID, so the hook (and every ``unlink``) is a
no-op in any other process — forked workers can exit through whatever path
they like without touching the parent's segments, and workers that crash
mid-step leave cleanup to the parent's guard (tested against the
``FaultSpec`` crash fate in ``tests/test_parallel.py``).
"""

from __future__ import annotations

import atexit
import os
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

#: Live segments created by this process: name -> arena.  Drained by the
#: atexit hook; entries disappear on explicit close/unlink.
_LIVE: Dict[str, "ShmArena"] = {}
_HOOK_INSTALLED = False


def _install_hook() -> None:
    global _HOOK_INSTALLED
    if not _HOOK_INSTALLED:
        atexit.register(cleanup_all)
        _HOOK_INSTALLED = True


def cleanup_all() -> int:
    """Unlink every segment this process created and still owns.

    Returns the number of segments released.  Registered with ``atexit``
    by the first :class:`ShmArena`; safe to call repeatedly and from
    forked children (where it is a no-op — the PID check below).
    """
    released = 0
    for arena in list(_LIVE.values()):
        if arena.unlink():
            released += 1
    return released


def live_segments() -> Tuple[str, ...]:
    """Names of the segments this process currently owns (for tests)."""
    return tuple(sorted(_LIVE))


class ShmArena:
    """One shared-memory segment with numpy views.

    ``ShmArena(nbytes)`` creates a segment and registers it for unlink at
    process exit.  Ownership is per-PID: only the creating process ever
    unlinks, so the object can be inherited freely across ``fork``.

    Use as a context manager for scoped lifetimes::

        with ShmArena(8 * n) as arena:
            view = arena.ndarray((n,))
            ...
        # segment is gone here, even if the body raised
    """

    def __init__(
        self, nbytes: int, name: Optional[str] = None, label: str = ""
    ) -> None:
        if not isinstance(nbytes, int) or isinstance(nbytes, bool):
            raise TypeError(f"nbytes must be an int, got {type(nbytes).__name__}")
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        self._shm = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        self.name = self._shm.name
        self.nbytes = nbytes
        #: Free-form role tag ("fields", "flux", "shm-race-log", ...) used by
        #: diagnostics — the shm race detector names segments by label.
        self.label = label
        self._owner_pid = os.getpid()
        self._closed = False
        _LIVE[self.name] = self
        _install_hook()

    @property
    def owned(self) -> bool:
        """Whether this process may unlink the segment."""
        return self._owner_pid == os.getpid()

    def ndarray(self, shape, dtype=np.float64, offset: int = 0) -> np.ndarray:
        """A numpy view of the segment (no copy)."""
        if self._closed:
            raise ValueError(f"shm segment {self.name} is closed")
        return np.ndarray(shape, dtype=dtype, buffer=self._shm.buf, offset=offset)

    def close(self) -> None:
        """Unmap this process's view (the segment itself survives)."""
        if not self._closed:
            self._closed = True
            try:
                self._shm.close()
            except (OSError, BufferError):
                # A live numpy view pins the mmap; leave it for atexit.
                self._closed = False

    def unlink(self) -> bool:
        """Destroy the segment if this process owns it.

        Returns True when the segment was actually released; idempotent
        (a second call, or a call after the segment vanished, is False).
        """
        if not self.owned:
            return False
        _LIVE.pop(self.name, None)
        self._owner_pid = -1
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:
            return False
        return True

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:  # noqa: ANN002
        self.unlink()

    def __repr__(self) -> str:
        state = "owned" if self.owned else "attached"
        return f"ShmArena({self.name!r}, {self.nbytes} bytes, {state})"
