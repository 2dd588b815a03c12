"""Correctness tooling for the asynchronous runtime.

The paper's port lives or dies on one discipline: no two tasks may touch
the same sub-grid data without a happens-before edge (the §VII-B
promise-guarded ghost read).  Every op of the step program declares its
effects once, as ``(mode, segment, lo, hi, region)`` rows derived from the plan
(:func:`repro.hydro.plan.op_effect_rows`), and three checks read them
with one conflict predicate
(:func:`repro.analysis.effects.conflict_mask`), each adding only its own
ordering:

* :mod:`repro.analysis.planverify` — statically, before any worker
  forks: the op program is race-free for the plan, and the plans' index
  arrays are disjoint covers (rank partitions, bundle scatter targets,
  FMM row blocks);
* :mod:`repro.analysis.shmrace` — on the process backend: per-rank shm
  access-event logs replayed after every round;
* :mod:`repro.analysis.race` — on the DES interpreter: the vector-clock
  race detector hooked into the AMT scheduler.

The repo-invariant AST linter lives in ``tools/reprolint.py`` (run as
``python -m tools.reprolint src/``); see ``docs/analysis.md`` for the
model and worked examples.
"""

from repro.analysis.race import (
    RaceDetector,
    RaceError,
    RaceFinding,
)
from repro.analysis.planverify import (
    PlanVerificationError,
    PlanViolation,
    require_verified,
    verify_bundle_plan,
    verify_fmm_blocks,
    verify_mesh_plans,
    verify_op_program,
    verify_partition,
    verify_process_plan,
)
from repro.analysis.shmrace import (
    ShmEventLog,
    ShmEventWriter,
    ShmRaceDetector,
    ShmRaceError,
)

__all__ = [
    "PlanVerificationError",
    "PlanViolation",
    "require_verified",
    "verify_bundle_plan",
    "verify_fmm_blocks",
    "verify_mesh_plans",
    "verify_op_program",
    "verify_partition",
    "verify_process_plan",
    "ShmEventLog",
    "ShmEventWriter",
    "ShmRaceDetector",
    "ShmRaceError",
    "RaceDetector",
    "RaceError",
    "RaceFinding",
]
