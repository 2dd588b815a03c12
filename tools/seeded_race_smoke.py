"""Seeded-race smoke: prove the step program's race checks are load-bearing.

    PYTHONPATH=src python -m tools.seeded_race_smoke

Injects a real scatter-overlap race into the ghost bundle plan (two
remote bundles writing the same arena elements from different ranks) and
drives one hydro step with it four times:

1. **static leg** — a process-backend step with plan verification on:
   the executor must refuse the plan with a `PlanVerificationError`
   naming both `bundle-dst-overlap` (the scatter index proof) and
   `op-program-race` (the op-program proof), before any worker receives it;
2. **shm leg** — verification off, shm race detection on: the injected
   conflict must surface as an `ShmRaceError` at the first ghost round;
3. **DES leg** — a `DistributedHydroDriver` step over the seeded plan:
   its always-on race detector must report a `RaceFinding` in
   `driver.race_findings`;
4. **control leg** — a process-backend step with both checkers off: the
   exact same race must run to completion *silently*.  This is the guard
   against silently-green checkers: if the control leg errors, the "race"
   we seeded was being caught by something other than the checkers (or
   was never a clean seed), and legs 1–3 prove nothing.

Exit status 0 only when every leg behaves as specified and no shm segment
is left behind; 1 otherwise, with one line per leg on stdout.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.planverify import PlanVerificationError  # noqa: E402
from repro.analysis.shmrace import ShmRaceError  # noqa: E402
from repro.amt.shm import live_segments  # noqa: E402
from repro.core.distributed import DistributedHydroDriver  # noqa: E402
from repro.distsim.runconfig import RunConfig  # noqa: E402
from repro.hydro.integrator import HydroIntegrator  # noqa: E402
from repro.machines import FUGAKU  # noqa: E402


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


def _des_findings():
    """One DES driver step over the seeded plan; its race findings."""
    mesh, eos = _make_mesh()
    driver = DistributedHydroDriver(
        mesh, eos, config=RunConfig(machine=FUGAKU, nodes=2)
    )
    driver.plans.plan_for(mesh, driver.registry, nranks=2)
    _inject(driver.plans.plan.ghosts)
    driver.step(1e-4)
    return driver.race_findings


def main() -> int:
    ok = True

    err = _run_leg(verify_plans=True, detect_races=False)
    checks = {v.check for v in getattr(err, "violations", ())}
    static_ok = isinstance(err, PlanVerificationError) and {
        "bundle-dst-overlap", "op-program-race"
    } <= checks
    ok &= static_ok
    print(f"static leg  (verify on):             "
          f"{'caught pre-publish' if static_ok else 'MISSED'} "
          f"({', '.join(sorted(checks)) or 'no violation'})")

    err = _run_leg(verify_plans=False, detect_races=True)
    shm_ok = isinstance(err, ShmRaceError)
    ok &= shm_ok
    print(f"shm leg     (verify off, detect on): "
          f"{'caught at barrier' if shm_ok else 'MISSED'} "
          f"({type(err).__name__ if err else 'no error'})")

    findings = _des_findings()
    des_ok = bool(findings)
    ok &= des_ok
    print(f"DES leg     (always-on detector):    "
          f"{'caught' if des_ok else 'MISSED'} ({len(findings)} finding(s))")

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
