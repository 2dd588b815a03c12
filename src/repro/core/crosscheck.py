"""Backend cross-check: one step program, three interpreters, the same bits.

The serial integrator, the DES driver
(:class:`repro.core.distributed.DistributedHydroDriver`) and the process
backend each interpret the one step program
(:func:`repro.hydro.integrator.rk3_ops`) over the same rank ops, so they
promise *bit-identical* physics: same kernels, same leaves, different
schedules.  This harness makes that promise executable — it clones a mesh
twice, runs the same step sequence through all three, and compares the
bit patterns of **every field of every leaf after every step** (not a
tolerance, and not ``==`` either: ``-0.0`` differs from ``0.0``, and a NaN
equals the same NaN).  The DES and process legs share the SFC
partition over ``nprocs`` ranks.  It backs the ``parallel-smoke`` CI job,
the backend-equivalence tests and the benchmark gate in
``benchmarks/bench_parallel.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional

import numpy as np

from repro.core.distributed import DistributedHydroDriver
from repro.core.plancache import PlanCache
from repro.distsim.runconfig import RunConfig
from repro.hydro.eos import IdealGasEOS
from repro.hydro.integrator import GravityCallback, HydroIntegrator
from repro.machines import FUGAKU
from repro.octree.mesh import AmrMesh
from repro.octree.node import NodeKey


class BackendMismatch(AssertionError):
    """Two backends produced different bits."""

    def __init__(self, step: int, key: NodeKey, max_abs_diff: float) -> None:
        self.step = step
        self.key = key
        self.max_abs_diff = max_abs_diff
        super().__init__(
            f"backend mismatch at step {step}, leaf {key}: "
            f"max |serial - other| = {max_abs_diff:.3e}"
        )


@dataclass
class CrosscheckResult:
    steps: int
    leaves: int
    nprocs: int
    dt: float
    #: Wall-clock seconds spent inside step() per backend (the cross-check
    #: is not a benchmark, but the ratios are a useful smoke signal).
    serial_s: float
    process_s: float
    des_s: float
    #: Race-check evidence: findings (must stay zero), events checked and
    #: (process side) events dropped by a full log (must stay zero).
    race_findings: int = 0
    race_events: int = 0
    race_dropped: int = 0
    des_race_findings: int = 0
    des_race_events: int = 0

    @property
    def ok(self) -> bool:  # mismatches raise, so reaching a result is success
        return (self.race_findings, self.race_dropped,
                self.des_race_findings) == (0, 0, 0)


def clone_mesh(mesh: AmrMesh) -> AmrMesh:
    """Rebuild an identical mesh with private storage.

    Reconstructs the refinement sequence (coarse to fine) on a fresh
    ``AmrMesh`` and copies every node's field data, so the clone shares no
    arrays with the original — required because the process backend adopts
    its mesh's storage into shared memory.
    """
    clone = AmrMesh(n=mesh.n, ghost=mesh.ghost, domain_size=mesh.domain_size)
    for level in range(mesh.max_level()):
        for node in mesh.nodes_at_level(level):
            if not node.is_leaf and clone.nodes[node.key].is_leaf:
                clone.refine(node.key)
    for key, node in mesh.nodes.items():
        clone.nodes[key].subgrid.data[...] = node.subgrid.data
    return clone


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays hold the same bit patterns.

    Value equality would pass a ``+0.0``/``-0.0`` divergence and fail two
    identical NaN fields; the kernels' bit-pattern selects exist to keep
    exactly those identical, so the check compares bits.
    """
    return (
        a.dtype == b.dtype
        and a.shape == b.shape
        and np.array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}"))
    )


def assert_identical(mesh_a: AmrMesh, mesh_b: AmrMesh, step: int = -1) -> None:
    """Raise :class:`BackendMismatch` unless every leaf is bit-equal."""
    keys_a = sorted(leaf.key for leaf in mesh_a.leaves())
    keys_b = sorted(leaf.key for leaf in mesh_b.leaves())
    if keys_a != keys_b:
        raise BackendMismatch(step, keys_a[0] if keys_a else (0, 0), float("inf"))
    for key in keys_a:
        a = mesh_a.nodes[key].subgrid.data
        b = mesh_b.nodes[key].subgrid.data
        if not same_bits(a, b):
            raise BackendMismatch(step, key, float(np.max(np.abs(a - b))))


def conserved_sums(mesh: AmrMesh) -> np.ndarray:
    """Volume-weighted field totals over the leaves (conservation probe)."""
    total = None
    for leaf in mesh.leaves():
        s = leaf.subgrid.interior
        sums = leaf.subgrid.data[:, s, s, s].sum(axis=(1, 2, 3)) * leaf.cell_volume
        total = sums if total is None else total + sums
    return total


def crosscheck_hydro(
    mesh: AmrMesh,
    steps: int = 3,
    nprocs: int = 2,
    eos: Optional[IdealGasEOS] = None,
    omega: float = 0.0,
    gravity: Optional[Callable[[], GravityCallback]] = None,
    overlap: bool = False,
    mutate: Optional[Callable[[AmrMesh, int], None]] = None,
    detect_races: bool = True,
    plan_cache=None,  # PlanCache | str | Path | None
) -> CrosscheckResult:
    """Run ``steps`` RK3 steps on all three backends, each at the serial
    leg's CFL timestep; raise on any divergence.

    The DES leg runs on ``nprocs`` virtual Fugaku nodes — the same SFC
    partition as the process leg's ``nprocs`` workers.  ``gravity`` is a
    *factory* returning a fresh gravity callback (each backend needs its
    own solver instance so plan caches never alias another's mesh).
    ``mutate(mesh, step_index)`` is applied to **every** mesh before each
    step — the regrid-propagation hook the hypothesis sweep drives.
    ``plan_cache`` (a directory path or a
    :class:`repro.core.plancache.PlanCache`) gives the serial and process
    backends each their own store handle over the same on-disk cache, so
    whichever side builds a topology cold serves the other a cache hit —
    and the bit-identity assertion then covers the cache-hit plan path too.

    The process side runs with static plan verification *and* (by
    default) the dynamic shm race detector enabled, and the DES side
    always runs its race detector, so every cross-check doubles as a
    zero-findings check of the step program's happens-before contract on
    both: a detected shm race raises ``ShmRaceError`` exactly like a bit
    mismatch raises :class:`BackendMismatch`, and DES findings count
    against :attr:`CrosscheckResult.ok`.
    """
    import time as _time

    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")

    def physics() -> dict:
        """Each leg's physics options, with its own gravity solver."""
        return dict(eos=eos, omega=omega, gravity=gravity() if gravity else None)

    serial = HydroIntegrator(
        mesh, plan_cache=PlanCache.of(plan_cache), **physics()
    )
    des = DistributedHydroDriver(
        clone_mesh(mesh), config=RunConfig(machine=FUGAKU, nodes=nprocs),
        **physics(),
    )
    process = HydroIntegrator(
        clone_mesh(mesh), backend="process", nprocs=nprocs, overlap=overlap,
        detect_races=detect_races, plan_cache=PlanCache.of(plan_cache),
        **physics(),
    )
    legs = (serial, des, process)
    seconds = [0.0, 0.0, 0.0]
    try:
        for step in range(steps):
            if mutate is not None:
                for leg in legs:
                    mutate(leg.mesh, step)
                for leg in legs[1:]:
                    assert_identical(mesh, leg.mesh, step)
            step_dt = serial.timestep()
            for i, leg in enumerate(legs):
                t0 = _time.perf_counter()
                leg.step(step_dt)
                seconds[i] += _time.perf_counter() - t0
            for leg in legs[1:]:
                assert_identical(mesh, leg.mesh, step)
                if not same_bits(conserved_sums(mesh), conserved_sums(leg.mesh)):
                    raise BackendMismatch(step, (0, 0), float("nan"))
        detector = (
            process._executor.race_detector
            if process._executor is not None else None
        )
        race_findings = len(detector.findings) if detector else 0
        race_events = detector.events_seen if detector else 0
        race_dropped = detector.dropped if detector else 0
    finally:
        process.close()
    return CrosscheckResult(
        steps=steps,
        leaves=len(mesh.leaves()),
        nprocs=nprocs,
        dt=serial.last_dt,
        serial_s=seconds[0],
        process_s=seconds[2],
        des_s=seconds[1],
        race_findings=race_findings,
        race_events=race_events,
        race_dropped=race_dropped,
        des_race_findings=len(des.race_findings),
        des_race_events=des.race_events,
    )


def crosscheck_scenarios(
    nprocs: int = 2,
    steps: int = 2,
    overlap: bool = False,
    plan_cache=None,  # PlanCache | str | Path | None
) -> List[CrosscheckResult]:
    """The CI smoke battery, serial vs DES vs process, bit for bit: a
    uniform blast, a rotating DWD (gravity via FMM) and a blast with one
    refined leaf (coarse-fine faces: reflux and the deferred update)."""
    from repro.gravity.fmm import FmmSolver
    from repro.scenarios.blast import sedov_blast
    from repro.scenarios.dwd import dwd_scenario

    blast, window = sedov_blast(levels=2), sedov_blast(levels=1)
    dwd = dwd_scenario(level=1, scf_grid=24)
    window.mesh.refine(min(window.mesh.leaf_keys()))  # an octant at the deposit

    return [
        crosscheck_hydro(
            blast.mesh, steps=steps, nprocs=nprocs, eos=blast.eos,
            overlap=overlap, plan_cache=plan_cache,
        ),
        crosscheck_hydro(
            dwd.mesh, steps=steps, nprocs=nprocs, eos=dwd.eos,
            omega=dwd.omega, gravity=partial(FmmSolver, empty_mass_threshold=1e-12),
            overlap=overlap, plan_cache=plan_cache,
        ),
        crosscheck_hydro(
            window.mesh, steps=steps, nprocs=nprocs, eos=window.eos,
            overlap=overlap, plan_cache=plan_cache,
        ),
    ]
