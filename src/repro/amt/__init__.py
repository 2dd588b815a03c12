"""Asynchronous many-task runtime (the HPX analog).

This package provides the task-parallel substrate the rest of the
reproduction runs on.  Like HPX it exposes

* futures and promises with continuations (:mod:`repro.amt.future`),
* a task scheduler over a pool of worker threads (:mod:`repro.amt.scheduler`),
* *localities* (process-like address spaces, :mod:`repro.amt.locality`),
* a network model for inter-locality messages (:mod:`repro.amt.network`).

Unlike HPX it runs on a **deterministic discrete-event virtual clock**
(:mod:`repro.amt.engine`): tasks execute real Python callables, but time is
simulated, so schedules are reproducible and we can model machines we do not
have (A64FX nodes, Tofu-D interconnects) while executing genuine numerics.

A second engine implementation, :mod:`repro.amt.parallel`, maps localities
to real OS processes over shared-memory arenas (:mod:`repro.amt.shm`) —
true parallelism with the DES engine as its bit-exact oracle.
"""

from repro.amt.future import (
    Future,
    Promise,
    FutureError,
    make_ready_future,
    when_all,
)
from repro.amt.engine import Engine
from repro.amt.task import Task, TaskState
from repro.amt.scheduler import WorkerPool
from repro.amt.locality import Locality, Runtime
from repro.amt.network import NetworkModel, Message
from repro.amt.parallel import (
    EngineNotStartedError,
    ParallelEngine,
    ParallelLocality,
    WorkerCrashError,
    WorkerError,
    WorkerTimeoutError,
)
from repro.amt.shm import ShmArena

__all__ = [
    "Future",
    "Promise",
    "FutureError",
    "make_ready_future",
    "when_all",
    "Engine",
    "Task",
    "TaskState",
    "WorkerPool",
    "Locality",
    "Runtime",
    "NetworkModel",
    "Message",
    "EngineNotStartedError",
    "ParallelEngine",
    "ParallelLocality",
    "WorkerCrashError",
    "WorkerError",
    "WorkerTimeoutError",
    "ShmArena",
]
