"""Correctness tooling for the asynchronous runtime.

The paper's port lives or dies on two disciplines: no two tasks may touch
the same sub-grid data without a happens-before edge (the futurized task
graph issues >10 kernels per sub-grid per step), and data may only cross
memory spaces through ``deep_copy``.  This package proves both:

* :mod:`repro.analysis.effects` — declared read/write/accumulate
  footprints over ``(subgrid, field, space)`` resources,
* :mod:`repro.analysis.race` — the dynamic vector-clock race detector
  (hooks the AMT scheduler) and the static task-graph checker,
* :mod:`repro.analysis.shmrace` — the same contract for the *process*
  backend: per-rank shm access-event logs replayed against the BSP
  barrier structure after every round,
* :mod:`repro.analysis.planverify` — static pre-launch verification that
  the parallel plans' index arrays are disjoint covers (bundle scatter
  targets, rank partitions, FMM split shards),
* :mod:`repro.analysis.spacesan` — the memory-space sanitizer mode that
  :class:`repro.kokkos.view.View` consults on every access.

The repo-invariant AST linter lives in ``tools/reprolint.py`` (run as
``python -m tools.reprolint src/``); see ``docs/analysis.md`` for the
model and worked examples.
"""

from repro.analysis.effects import (
    ANY,
    EMPTY_EFFECTS,
    EffectRegistry,
    EffectSet,
    Resource,
    declare_effects,
    effects_of,
)
from repro.analysis.race import (
    GraphTask,
    RaceDetector,
    RaceError,
    RaceFinding,
    check_graph,
    check_space_discipline,
)
from repro.analysis.planverify import (
    PlanVerificationError,
    PlanViolation,
    require_verified,
    verify_bundle_plan,
    verify_fmm_blocks,
    verify_mesh_plans,
    verify_partition,
    verify_process_plan,
)
from repro.analysis.shmrace import (
    ShmEventLog,
    ShmEventWriter,
    ShmRaceDetector,
    ShmRaceError,
)
from repro.analysis.spacesan import (
    MemorySpaceViolation,
    SpaceFinding,
    sanitizer_mode,
    space_checks_enabled,
)

__all__ = [
    "PlanVerificationError",
    "PlanViolation",
    "require_verified",
    "verify_bundle_plan",
    "verify_fmm_blocks",
    "verify_mesh_plans",
    "verify_partition",
    "verify_process_plan",
    "ShmEventLog",
    "ShmEventWriter",
    "ShmRaceDetector",
    "ShmRaceError",
    "ANY",
    "EMPTY_EFFECTS",
    "EffectRegistry",
    "EffectSet",
    "Resource",
    "declare_effects",
    "effects_of",
    "GraphTask",
    "RaceDetector",
    "RaceError",
    "RaceFinding",
    "check_graph",
    "check_space_discipline",
    "MemorySpaceViolation",
    "SpaceFinding",
    "sanitizer_mode",
    "space_checks_enabled",
]
