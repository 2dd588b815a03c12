"""The four pinned workloads and their seeded inputs.

Everything the program under test sees is generated here: a mesh from one of
the repo's scenario builders, perturbed by the seed, and (for the regrid
workload) a pair of refinement criteria.  The seed never reaches ``src/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.driver import OctoTigerSim
from repro.octree.fields import Field

NPROCS = 2
WARMUP_OPS = 3
#: Relative amplitude of the seeded density perturbation.
PERTURBATION = 1e-6
#: Steps a blast run may take, by mesh level: beyond it the shock nears the
#: outflow boundary, mass leaves the domain and neither the conservation
#: nor the Sedov check means anything (measured: drift 7.6e-15 at step 125,
#: 1.8e-12 at step 150 on level 2).  The time budget ends a run long before
#: this on today's hosts; a host fast enough to reach it measures for less
#: than ``--seconds``.
BLAST_MAX_STEPS = {1: 20, 2: 120}
#: Mass-drift tolerance of the gravity workloads on the coarse smoke meshes.
SMOKE_MASS_TOL = 1e-2


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # "blast" | "star" | "dwd"
    gravity: bool
    backend: str  # "des" | "process"
    regrid: bool
    #: Allowed relative mass drift over a level-2 run (output check).
    mass_tol: float


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "blast_l2_hydro", "blast", gravity=False, backend="des", regrid=False,
        mass_tol=1e-12,
    ),
    Workload(
        "star_l2_coupled", "star", gravity=True, backend="des", regrid=False,
        mass_tol=1e-6,
    ),
    Workload(
        "dwd_l2_regrid", "dwd", gravity=True, backend="des", regrid=True,
        mass_tol=1e-6,
    ),
    Workload(
        "blast_l2_process", "blast", gravity=False, backend="process",
        regrid=False, mass_tol=1e-12,
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


class WindowCriterion:
    """Refine the base-level leaves near ``centre``; coarsen finer leaves
    whose parent lies outside the window.  Leaves at or below the base
    level never coarsen, so the mesh outside the window is pinned."""

    def __init__(self, centre: np.ndarray, radius: float, base_level: int) -> None:
        self.centre = centre
        self.radius = radius
        self.base_level = base_level

    def _inside(self, point: np.ndarray) -> bool:
        return bool(np.linalg.norm(point - self.centre) < self.radius)

    def wants_refinement(self, leaf) -> bool:  # noqa: ANN001 - OctreeNode
        return leaf.level == self.base_level and self._inside(leaf.center)

    def allows_coarsening(self, leaf) -> bool:  # noqa: ANN001 - OctreeNode
        if leaf.level <= self.base_level:
            return False
        size = leaf.node_size
        parity = np.asarray(leaf.coords) % 2
        parent_centre = leaf.origin - parity * size + size
        return not self._inside(parent_centre)


@dataclass
class Case:
    """One workload's generated inputs."""

    workload: Workload
    level: int
    scenario: Any  # the scenario builder's result (mesh, eos, ...)
    omega: float
    #: Alternating regrid criteria (empty unless ``workload.regrid``).
    criteria: List[WindowCriterion]

    @property
    def mesh(self):  # noqa: ANN201 - AmrMesh
        return self.scenario.mesh


def build_scenario(workload: Workload, level: int):  # noqa: ANN201
    if workload.scenario == "blast":
        from repro.scenarios.blast import sedov_blast

        return sedov_blast(levels=level)
    if workload.scenario == "star":
        from repro.scenarios.rotating_star import rotating_star

        return rotating_star(level=level)
    from repro.scenarios.dwd import dwd_scenario

    return dwd_scenario(level=level)


def seed_case(workload: Workload, scenario, seed: int, level: int) -> Case:  # noqa: ANN001
    """Apply the seed: a tiny density perturbation on every leaf and, for
    the regrid workload, the orientation of the refinement window."""
    rng = np.random.default_rng(seed)
    mesh = scenario.mesh
    n = mesh.n
    for key in sorted(mesh.leaf_keys()):
        subgrid = mesh.nodes[key].subgrid
        rho = subgrid.interior_view(Field.RHO)
        factor = 1.0 + PERTURBATION * rng.uniform(-1.0, 1.0, size=(n, n, n))
        subgrid.set_interior(Field.RHO, rho * factor)
    mesh.restrict_all()

    criteria: List[WindowCriterion] = []
    if workload.regrid:
        # Leaf centres sit on a lattice of pitch `pitch`; a window centred
        # in the orbital plane within 15 degrees of a diagonal captures
        # exactly the two leaves above and below the plane, so every seed
        # refines the same number of leaves (78 leaves at level 2).
        pitch = mesh.domain_size / 2**level
        angle = math.radians(
            45.0 + rng.uniform(-15.0, 15.0) + 90.0 * int(rng.integers(0, 4))
        )
        site = 0.9 * pitch * np.array([math.cos(angle), math.sin(angle), 0.0])
        criteria = [
            WindowCriterion(sign * site, 0.6 * pitch, level) for sign in (1.0, -1.0)
        ]
    return Case(
        workload=workload, level=level, scenario=scenario,
        omega=float(getattr(scenario, "omega", 0.0)), criteria=criteria,
    )


def make_sim(case: Case, mesh=None, **overrides: Any) -> OctoTigerSim:  # noqa: ANN001
    """The workload's driver; ``mesh`` substitutes another mesh of the same
    problem and ``overrides`` replace single constructor options."""
    options: Dict[str, Any] = dict(
        eos=case.scenario.eos,
        omega=case.omega,
        gravity=case.workload.gravity,
        backend=case.workload.backend,
        nprocs=NPROCS,
        overlap=False,
    )
    options.update(overrides)
    return OctoTigerSim(case.mesh if mesh is None else mesh, **options)


class Stepper:
    """The timed operation: one driver step, preceded on the regrid
    workload by a regrid to the next window position."""

    def __init__(self, sim: OctoTigerSim, case: Case) -> None:
        self.sim = sim
        self.case = case
        self.ops = 0
        self.regrids: List[Tuple[int, int]] = []
        #: Number of distinct operation kinds (window positions).
        self.phases = max(1, len(case.criteria))

    @property
    def phase(self) -> int:
        return self.ops % self.phases

    def regrid(self):  # noqa: ANN201 - RegridResult
        result = self.sim.regrid(
            self.case.criteria[self.phase], max_level=self.case.level + 1
        )
        self.regrids.append((result.refined, result.coarsened))
        return result

    def op(self) -> None:
        if self.case.criteria:
            self.regrid()
        self.sim.step()
        self.ops += 1

    def exhausted(self) -> bool:
        """Whether another operation would leave the workload's valid range."""
        return (
            self.case.workload.scenario == "blast"
            and self.ops >= BLAST_MAX_STEPS[self.case.level]
        )
