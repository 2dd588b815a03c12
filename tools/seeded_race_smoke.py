"""Seeded-race smoke: prove the process-backend checkers are load-bearing.

    PYTHONPATH=src python -m tools.seeded_race_smoke

Injects a real scatter-overlap race into the ghost bundle plan (two
remote bundles writing the same arena elements from different ranks) and
drives one hydro step through the `ProcessHydroExecutor` of a process-backend
`HydroIntegrator` three times:

1. **static leg** — plan verification on: the executor must refuse the
   plan with a `PlanVerificationError` naming `bundle-dst-overlap`,
   before any worker forks;
2. **dynamic leg** — verification off, race detection on: the injected
   write-write conflict must surface as an `ShmRaceError` at the first
   ghost barrier;
3. **control leg** — both checkers off: the exact same race must run to
   completion *silently*.  This is the guard against silently-green
   checkers: if the control leg errors, the "race" we seeded was being
   caught by something other than the checkers (or was never a clean
   seed), and legs 1–2 prove nothing.

Exit status 0 only when all three legs behave as specified; 1 otherwise,
with one line per leg on stdout.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.planverify import PlanVerificationError  # noqa: E402
from repro.analysis.shmrace import ShmRaceError  # noqa: E402
from repro.amt.shm import live_segments  # noqa: E402
from repro.hydro.integrator import HydroIntegrator  # noqa: E402


def _make_mesh():
    from tests.test_hydro_plan import make_state_mesh

    return make_state_mesh(levels=1, refine_keys=(0,))


def _inject(plan) -> None:  # noqa: ANN001
    from tests.test_shmrace import inject_scatter_overlap

    inject_scatter_overlap(plan)


def _run_leg(verify_plans: bool, detect_races: bool):
    """One hydro step with the seeded plan; returns the raised checker
    error (or None when the step completed)."""
    mesh, eos = _make_mesh()
    ex = HydroIntegrator(
        mesh, eos, backend="process", nprocs=2,
        verify_plans=verify_plans, detect_races=detect_races,
    ).executor()
    ex.bundle_plan_hook = _inject
    try:
        ex.step(1e-4)
        return None
    except (PlanVerificationError, ShmRaceError) as err:
        return err
    finally:
        ex.close()


def main() -> int:
    ok = True

    err = _run_leg(verify_plans=True, detect_races=False)
    static_ok = isinstance(err, PlanVerificationError) and any(
        v.check == "bundle-dst-overlap" for v in err.violations
    )
    ok &= static_ok
    print(f"static leg  (verify on):            "
          f"{'caught pre-fork' if static_ok else 'MISSED'} "
          f"({type(err).__name__ if err else 'no error'})")

    err = _run_leg(verify_plans=False, detect_races=True)
    dynamic_ok = isinstance(err, ShmRaceError)
    ok &= dynamic_ok
    print(f"dynamic leg (verify off, detect on): "
          f"{'caught at barrier' if dynamic_ok else 'MISSED'} "
          f"({type(err).__name__ if err else 'no error'})")

    err = _run_leg(verify_plans=False, detect_races=False)
    control_ok = err is None
    ok &= control_ok
    print(f"control leg (checkers off):          "
          f"{'race ran silently, as expected' if control_ok else f'unexpected {type(err).__name__}'}")

    leaked = live_segments()
    if leaked:
        ok = False
        print(f"shm leak: {leaked}")

    print(f"seeded-race smoke: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
