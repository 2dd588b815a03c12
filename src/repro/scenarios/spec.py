"""Workload specifications consumed by the performance simulator.

A :class:`ScenarioSpec` is the quantitative fingerprint of a scenario: how
many sub-grids, how much work per cell per step, how many interactions per
sub-grid each solver phase performs, and how many bytes move per ghost face.
Paper-scale runs (17 M sub-grids on 1024 nodes) are described analytically;
laptop-scale meshes are measured directly with :func:`workload_from_mesh`,
and the per-sub-grid averages agree between the two paths because they are
scale-invariant for density-refined octrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from repro.octree.fields import NFIELDS


@dataclass(frozen=True)
class ScenarioSpec:
    """Workload description of one scenario at one refinement level."""

    name: str
    n_subgrids: int
    max_level: int
    subgrid_n: int = 8
    ghost_width: int = 2

    #: Storage per sub-grid: fields + scratch + tree metadata.  Calibrated
    #: so the paper's minimum node counts reproduce (e.g. the DWD scenario
    #: filling one 28 GB Fugaku node); see DESIGN.md.
    bytes_per_subgrid: int = 5_400

    #: Kernel launches per sub-grid per timestep — the paper reports "> 10"
    #: (three RK stages of hydro reconstruct/flux/update plus the gravity
    #: phases).
    kernels_per_subgrid_per_step: int = 12

    #: Modelled flop counts per cell per timestep (three RK stages).
    hydro_flops_per_cell: float = 2_200.0
    gravity_flops_per_cell: float = 1_600.0

    #: Same-level multipole interactions per sub-grid (near + far), and the
    #: direct-neighbour P2P count; measured from the FMM traversal.
    fmm_interactions_per_subgrid: float = 36.0
    p2p_pairs_per_subgrid: float = 13.5

    #: Ghost faces exchanged per sub-grid per RK stage.
    ghost_faces_per_subgrid: float = 6.0

    #: Fraction of ghost exchanges whose partner lives on the same locality
    #: for a Morton-partitioned mesh; scales with (subgrids/locality)^(1/3)
    #: surface-to-volume — the simulator recomputes it per node count.
    sfc_surface_coefficient: float = 1.0

    @property
    def n_cells(self) -> int:
        return self.n_subgrids * self.subgrid_n**3

    @property
    def memory_bytes(self) -> int:
        return self.n_subgrids * self.bytes_per_subgrid

    @property
    def face_bytes(self) -> int:
        """Payload of one ghost-face message."""
        return NFIELDS * self.ghost_width * self.subgrid_n**2 * 8

    def with_subgrids(self, n_subgrids: int) -> "ScenarioSpec":
        return replace(self, n_subgrids=n_subgrids)


def measured_spec(
    mesh, name: str, m2l_pairs: int, p2p_pairs: int, ghost_faces: int  # noqa: ANN001
) -> ScenarioSpec:
    """The spec of a real mesh from its measured totals: undirected
    same-level (far + near) M2L pairs, undirected P2P pairs, and
    non-boundary ghost transfers (a coarse face fed by four fine
    neighbours counts four)."""
    n_subgrids = mesh.n_subgrids()
    return ScenarioSpec(
        name=name,
        n_subgrids=n_subgrids,
        max_level=mesh.max_level(),
        subgrid_n=mesh.n,
        ghost_width=mesh.ghost,
        fmm_interactions_per_subgrid=2.0 * m2l_pairs / n_subgrids,
        p2p_pairs_per_subgrid=2.0 * p2p_pairs / n_subgrids,
        ghost_faces_per_subgrid=ghost_faces / n_subgrids,
    )


def workload_from_mesh(mesh, name: str = "measured") -> ScenarioSpec:  # noqa: ANN001
    """Measure a spec from a real mesh alone, from its pair lists and ghost faces.

    :func:`~repro.gravity.plan.pair_lists` at :data:`~repro.gravity.fmm.THETA`
    and one walk over the ghost faces; a caller that already holds the
    mesh's plans reads the same totals off them and calls
    :func:`measured_spec` (the driver does)."""
    from repro.gravity.fmm import THETA
    from repro.gravity.plan import pair_lists
    from repro.octree.ghost import exchange_plan

    pairs = pair_lists(mesh, THETA)
    non_boundary = sum(1 for ex in exchange_plan(mesh) if ex.src is not None)
    n_m2l = pairs.far.shape[0] + pairs.near.shape[0]
    return measured_spec(mesh, name, n_m2l, pairs.p2p.shape[0], non_boundary)
