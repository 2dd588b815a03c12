"""Command-line interface: drive scenarios and performance studies.

    python -m repro.cli run --scenario rotating_star --level 2 --steps 3
    python -m repro.cli scale --scenario rotating_star --level 5 \
        --machine Fugaku --nodes 1 2 4 8 16
    python -m repro.cli machines
    python -m repro.cli manifest
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Octo-Tiger-on-HPX/Kokkos reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evolve a scenario with real physics")
    run.add_argument("--scenario", default="rotating_star",
                     choices=["rotating_star", "v1309", "dwd"])
    run.add_argument("--level", type=int, default=2)
    run.add_argument("--steps", type=int, default=3)
    run.add_argument("--machine", default="Fugaku")
    run.add_argument("--nodes", type=_positive_int, default=4)
    run.add_argument("--checkpoint", default=None,
                     help="write a checkpoint here after the run")
    run.add_argument("--coalesce", default=True,
                     action=argparse.BooleanOptionalAction,
                     help="price the virtual timing with ghost messages "
                          "bundled per locality pair (one message per "
                          "neighbor locality per phase, see docs/comms.md); "
                          "--no-coalesce prices one message per leaf face "
                          "(the Fig. 8 ablation; the physics is unaffected)")
    run.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                     help="write a checkpoint every N steps and, when a "
                          "worker process dies or stops replying, roll back "
                          "to the newest one and replay (bit-exact)")
    run.add_argument("--checkpoint-dir", default=None,
                     help="directory for the checkpoint series, every "
                          "checkpoint kept (default: a temporary directory "
                          "holding only the newest, removed when the run ends)")
    run.add_argument("--backend", default="des", choices=["des", "process"],
                     help="execution backend: 'des' runs physics in-process "
                          "with discrete-event timing (default); 'process' "
                          "runs the hydro step on real worker processes "
                          "with shared-memory arenas, gravity in the parent "
                          "(identical bits, see docs/parallel.md)")
    run.add_argument("--nprocs", type=_positive_int, default=2, metavar="N",
                     help="worker processes for --backend process")
    run.add_argument("--overlap", default=False,
                     action=argparse.BooleanOptionalAction,
                     help="process backend: fused schedule — each RK "
                          "stage's ghost exchange, rhs and update run as "
                          "one dependency-grained round instead of three "
                          "barrier rounds (bit-identical to the default "
                          "BSP rounds; --no-overlap is the baseline)")
    run.add_argument("--verify-plans", default=True,
                     action=argparse.BooleanOptionalAction,
                     help="statically verify the parallel plans (disjoint "
                          "rank partitions, ghost bundles with one donor "
                          "per ghost target, M2L row blocks that tile "
                          "their rows) before launch; "
                          "--no-verify-plans runs unverified plans")
    run.add_argument("--detect-races", action="store_true",
                     help="process backend: log every worker's shm accesses "
                          "and replay them against the barrier structure "
                          "after each round, raising on unordered conflicts")
    run.add_argument("--plan-cache", default=None, metavar="DIR",
                     nargs="?", const="auto",
                     help="persist execution plans to a content-addressed "
                          "on-disk store keyed by topology fingerprint "
                          "(docs/plan_lifecycle.md): reruns over seen "
                          "topologies skip cold plan construction with "
                          "identical bits.  DIR selects the store root; "
                          "bare --plan-cache uses the user cache dir "
                          "(~/.cache/repro/plans)")

    check = sub.add_parser(
        "crosscheck",
        help="run the same steps on the serial, DES and process backends "
             "and assert bit-identical fields (the parallel-smoke CI gate)")
    check.add_argument("--nprocs", type=_positive_int, default=2, metavar="N")
    check.add_argument("--steps", type=_positive_int, default=2)
    check.add_argument("--overlap", default=False,
                       action=argparse.BooleanOptionalAction,
                       help="run the process side with the fused "
                            "schedule (one round per RK stage); the "
                            "bit-identity assertion then covers that path")
    check.add_argument("--plan-cache", default=None, metavar="DIR",
                       help="route the serial and process backends' plan "
                            "construction through one on-disk plan cache "
                            "at DIR: whichever side "
                            "builds a topology cold serves the other a "
                            "cache hit, so the bit-identity assertion also "
                            "covers the cache-hit plan path")

    verify = sub.add_parser(
        "verify-plans",
        help="statically verify the parallel execution plans of every "
             "scenario: rank partitions, ghost bundle scatter sets and "
             "FMM M2L row blocks (no workers are forked)")
    verify.add_argument("--nprocs", type=_positive_int, default=2, metavar="N")
    verify.add_argument("--levels", type=int, nargs="+", default=[1, 2])
    verify.add_argument("--scenarios", nargs="+",
                        default=["blast", "rotating_star", "dwd", "v1309"],
                        choices=["blast", "rotating_star", "dwd", "v1309"])

    scale = sub.add_parser("scale", help="evaluate the distributed model")
    scale.add_argument("--scenario", default="rotating_star",
                       choices=["rotating_star", "v1309", "dwd"])
    scale.add_argument("--level", type=int, default=5)
    scale.add_argument("--machine", default="Fugaku")
    scale.add_argument("--nodes", type=_positive_int, nargs="+",
                       default=[1, 2, 4, 8, 16, 32, 64, 128])
    scale.add_argument("--gpus", action="store_true")
    scale.add_argument("--no-simd", action="store_true")
    scale.add_argument("--multipole-tasks", type=_positive_int, default=1)

    sub.add_parser("machines", help="list the machine models")
    sub.add_parser("manifest", help="print the Table I software manifest")
    return parser


def _scenario_spec(name: str, level: int, build_mesh: bool):  # noqa: ANN202
    from repro.scenarios import dwd_scenario, rotating_star, v1309_scenario

    builders = {
        "rotating_star": rotating_star,
        "v1309": v1309_scenario,
        "dwd": dwd_scenario,
    }
    return builders[name](level=level, build_mesh=build_mesh)


def _command_run(args: argparse.Namespace) -> int:
    from repro.core import OctoTigerSim
    from repro.core.diagnostics import diagnostics
    from repro.distsim import RunConfig
    from repro.machines import MACHINES
    from repro.resilience import UnrecoverableFault

    scenario = _scenario_spec(args.scenario, args.level, build_mesh=True)
    if scenario.mesh is None:
        print("level too large to build in memory; use `scale`", file=sys.stderr)
        return 2
    machine = MACHINES[args.machine]
    if args.backend == "process":
        cores_usable = len(os.sched_getaffinity(0))
        if args.nprocs > cores_usable:
            print(
                f"warning: --nprocs {args.nprocs} exceeds the "
                f"{cores_usable} usable core(s); workers will timeshare "
                "and measured speedups are not meaningful",
                file=sys.stderr,
            )
    plan_cache = args.plan_cache
    if plan_cache == "auto":
        from repro.core.plancache import default_cache_dir

        plan_cache = default_cache_dir()
    sim = OctoTigerSim(
        scenario.mesh, eos=scenario.eos,
        omega=getattr(scenario, "omega", 0.0),
        config=RunConfig(
            machine=machine, nodes=args.nodes, coalesce=args.coalesce
        ),
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        backend=args.backend,
        nprocs=args.nprocs,
        overlap=args.overlap,
        verify_plans=args.verify_plans,
        detect_races=args.detect_races,
        plan_cache=plan_cache,
    )
    before = diagnostics(scenario.mesh)
    print(f"{args.scenario} level {args.level}: {scenario.mesh.n_cells()} cells "
          f"on {args.nodes}x {machine.name}")
    try:
        for record in sim.run(args.steps):
            print(f"  step {record.step}: dt={record.dt:.3e} "
                  f"{record.cells_per_second:.3e} cells/s "
                  f"{record.node_power_w:.0f} W/node")
    except UnrecoverableFault as exc:
        print(f"UNRECOVERABLE FAULT: {exc}", file=sys.stderr)
        return 5
    after = diagnostics(sim.mesh)
    print(f"mass drift {after.mass - before.mass:+.3e}")
    if sim.plan_cache is not None:
        s = sim.plan_cache.stats
        print(f"plan cache: {s.hits} hit(s), {s.misses} miss(es), "
              f"{s.stores} store(s), {s.errors} error(s)")
    if args.checkpoint:
        path = sim.save_checkpoint(args.checkpoint)
        print(f"checkpoint written to {path}")
    sim.close()
    return 0


def _command_crosscheck(args: argparse.Namespace) -> int:
    from repro.core.crosscheck import BackendMismatch, crosscheck_scenarios

    try:
        results = crosscheck_scenarios(
            nprocs=args.nprocs, steps=args.steps,
            overlap=args.overlap, plan_cache=args.plan_cache,
        )
    except BackendMismatch as exc:
        print(f"CROSSCHECK FAILED: {exc}", file=sys.stderr)
        return 1
    for name, r in zip(("blast", "dwd", "refined blast"), results):
        print(f"{name}: {r.steps} steps x {r.leaves} leaves, "
              f"nprocs={r.nprocs}, serial {r.serial_s:.2f}s / "
              f"DES {r.des_s:.2f}s / process {r.process_s:.2f}s — "
              f"bit-identical; DES {r.des_race_findings} race finding(s) "
              f"over {r.des_race_events} task(s), process "
              f"{r.race_findings} race finding(s) over {r.race_events} "
              f"shm access events ({r.race_dropped} dropped)")
    return 0 if all(r.ok for r in results) else 1


def _command_verify_plans(args: argparse.Namespace) -> int:
    from repro.analysis.planverify import verify_fmm_blocks, verify_mesh_plans
    from repro.gravity.fmm import THETA
    from repro.gravity.plan import build_plan
    from repro.scenarios import dwd_scenario, rotating_star, v1309_scenario
    from repro.scenarios.blast import sedov_blast

    def build(name: str, level: int):  # noqa: ANN202
        if name == "blast":
            return sedov_blast(levels=level).mesh
        if name == "rotating_star":
            return rotating_star(level=level).mesh
        if name == "dwd":
            return dwd_scenario(level=level, scf_grid=24).mesh
        return v1309_scenario(level=level, scf_grid=24).mesh

    total = 0
    for name in args.scenarios:
        for level in args.levels:
            mesh = build(name, level)
            violations = verify_mesh_plans(mesh, args.nprocs)
            # Deliberate per-scenario sweep: verify-plans must prove each
            # topology's cold construction, never a cached/delta shortcut.
            plan = build_plan(mesh, THETA)  # reprolint: sanctioned-cold-build
            violations.extend(verify_fmm_blocks(plan))
            status = "OK" if not violations else "FAIL"
            blocks = len(plan.near_blocks) + sum(len(fl.blocks) for fl in plan.far_levels)
            print(f"{name:<14} level {level} nprocs {args.nprocs}: "
                  f"{len(mesh.leaves())} leaves, {blocks} M2L row block(s) + "
                  f"{len(plan.p2p_classes)} P2P gather(s) verified — {status}")
            for v in violations:
                print(f"  {v}", file=sys.stderr)
            total += len(violations)
    if total:
        print(f"{total} plan violation(s)", file=sys.stderr)
        return 1
    return 0


def _command_scale(args: argparse.Namespace) -> int:
    from repro.distsim import RunConfig, simulate_step
    from repro.machines import MACHINES

    scenario = _scenario_spec(args.scenario, args.level, build_mesh=False)
    machine = MACHINES[args.machine]
    print(f"{scenario.spec.name}: {scenario.spec.n_cells:,} cells on {machine.name}")
    print("  nodes   cells/s      util   W(total)")
    for nodes in args.nodes:
        config = RunConfig(
            machine=machine,
            nodes=nodes,
            use_gpus=args.gpus,
            simd=not args.no_simd,
            tasks_per_multipole_kernel=args.multipole_tasks,
        )
        r = simulate_step(scenario.spec, config)
        print(f"  {nodes:5d}   {r.cells_per_second:.3e}  {r.utilization:.2f}  "
              f"{r.job_power_w:8.0f}")
    return 0


def _command_machines() -> int:
    from repro.machines import MACHINES

    for machine in MACHINES.values():
        node = machine.node
        gpus = f", {len(node.gpus)}x {node.gpus[0].name}" if node.gpus else ""
        print(f"{machine.name:<11} {node.cores} cores @ {node.freq_ghz} GHz"
              f" ({node.simd_abi}){gpus}; {node.memory_gb:.0f} GB;"
              f" {machine.interconnect.name}")
    return 0


def _command_manifest() -> int:
    from repro.machines import format_manifest

    print(format_manifest())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "crosscheck":
        return _command_crosscheck(args)
    if args.command == "verify-plans":
        return _command_verify_plans(args)
    if args.command == "scale":
        return _command_scale(args)
    if args.command == "machines":
        return _command_machines()
    return _command_manifest()


if __name__ == "__main__":
    raise SystemExit(main())
