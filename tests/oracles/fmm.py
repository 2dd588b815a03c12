"""Test oracle: the unbatched per-node FMM solve and its scalar kernels.

:func:`solve_reference` re-derives the traversal on every call and
evaluates one node (or one octant) at a time with the one-node
``Multipole`` / ``LocalExpansion`` algebra; the planned, batched
:meth:`repro.gravity.fmm.FmmSolver.solve` is the only solve the program
runs, and the equivalence tests hold it to this one.  The kernel tests
hold ``m2l_segmented`` to ``m2l_segmented_einsum`` bit for bit and to
``m2l_batch`` per target, and ``m2l_batch`` to ``m2l``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gravity.conservation import project_angular_momentum, project_momentum
from repro.gravity.fmm import G_NEWTON, THETA, FmmResult, FmmSolver, FmmStats
from repro.gravity.kernels import _EYE
from repro.gravity.multipole import octant_ids
from repro.octree.mesh import AmrMesh
from repro.octree.fields import Field
from repro.octree.node import NodeKey, OctreeNode


# -- the float dual tree traversal ---------------------------------------------
def is_far(a: OctreeNode, b: OctreeNode, theta: float) -> bool:
    """The opening criterion: separation of at least ``2 / theta`` sizes."""
    dist = float(np.linalg.norm(a.center - b.center))
    return dist * theta >= 2.0 * max(a.node_size, b.node_size) * (1.0 - 1e-12)


def is_touching(a: OctreeNode, b: OctreeNode) -> bool:
    gap = 0.5 * (a.node_size + b.node_size) * (1.0 + 1e-12)
    return bool(np.all(np.abs(a.center - b.center) <= gap))


def traverse(
    mesh: AmrMesh, theta: float
) -> Tuple[
    List[Tuple[NodeKey, NodeKey]],
    List[Tuple[NodeKey, NodeKey]],
    List[Tuple[NodeKey, NodeKey]],
]:
    """Dual tree traversal over float node centres, one node pair at a
    time: returns (far, near, p2p) pairs, each unordered.  The reference
    :func:`repro.gravity.plan.pair_lists` is held to."""
    far: List[Tuple[NodeKey, NodeKey]] = []
    near: List[Tuple[NodeKey, NodeKey]] = []
    p2p: List[Tuple[NodeKey, NodeKey]] = []
    stack: List[Tuple[NodeKey, NodeKey]] = [((0, 0), (0, 0))]
    while stack:
        ka, kb = stack.pop()
        a, b = mesh.nodes[ka], mesh.nodes[kb]
        if ka == kb:
            if a.is_leaf:
                p2p.append((ka, ka))
            else:
                kids = a.children_keys()
                for i in range(8):
                    for j in range(i, 8):
                        stack.append((kids[i], kids[j]))
            continue
        if is_far(a, b, theta):
            far.append((ka, kb))
            continue
        if a.is_leaf and b.is_leaf:
            (p2p if is_touching(a, b) else near).append((ka, kb))
            continue
        # Split the larger node; on a tie split whichever is refined.
        split_a = (not a.is_leaf) and (a.node_size >= b.node_size or b.is_leaf)
        if split_a:
            for kid in a.children_keys():
                stack.append((kid, kb))
        else:
            for kid in b.children_keys():
                stack.append((ka, kid))
    return far, near, p2p


# -- one node's moments and local expansion ------------------------------------
@dataclass
class Multipole:
    """Moments of a mass distribution about ``center`` (its COM)."""

    mass: float
    center: np.ndarray  # (3,)
    quad: np.ndarray  # (3, 3) raw second moment
    octu: np.ndarray  # (3, 3, 3) raw third moment

    @classmethod
    def zero(cls) -> "Multipole":
        return cls(0.0, np.zeros(3), np.zeros((3, 3)), np.zeros((3, 3, 3)))

    @classmethod
    def from_points(
        cls, pos: np.ndarray, mass: np.ndarray, fallback_center: Optional[np.ndarray] = None
    ) -> "Multipole":
        """P2M: moments of point masses ``pos`` (n, 3), ``mass`` (n,).

        ``fallback_center`` anchors the expansion of an empty (zero-mass)
        distribution — vacuum sub-grids exist in every star scenario and a
        COM at the origin would collide with genuine expansion centres.
        """
        total = float(mass.sum())
        if total <= 0.0:
            out = cls.zero()
            if fallback_center is not None:
                out.center = np.asarray(fallback_center, dtype=np.float64).copy()
            return out
        com = (pos * mass[:, None]).sum(axis=0) / total
        r = pos - com
        quad = np.einsum("n,ni,nj->ij", mass, r, r)
        octu = np.einsum("n,ni,nj,nk->ijk", mass, r, r, r)
        return cls(total, com, quad, octu)

    @classmethod
    def combine(
        cls, parts: List["Multipole"], fallback_center: Optional[np.ndarray] = None
    ) -> "Multipole":
        """M2M: moments of a union of distributions about the joint COM.

        Shift identities for raw moments with vanishing dipole (d is the
        displacement of a part's COM from the joint COM):

            Q'_ij  = Q_ij + m d_i d_j
            O'_ijk = O_ijk + Q_ij d_k + Q_jk d_i + Q_ik d_j + m d_i d_j d_k
        """
        total = sum(p.mass for p in parts)
        if total <= 0.0:
            out = cls.zero()
            if fallback_center is not None:
                out.center = np.asarray(fallback_center, dtype=np.float64).copy()
            return out
        com = sum(p.mass * p.center for p in parts) / total
        quad = np.zeros((3, 3))
        octu = np.zeros((3, 3, 3))
        for p in parts:
            if p.mass == 0.0:
                continue
            d = p.center - com
            quad += p.quad + p.mass * np.outer(d, d)
            octu += (
                p.octu
                + np.einsum("ij,k->ijk", p.quad, d)
                + np.einsum("jk,i->ijk", p.quad, d)
                + np.einsum("ik,j->ijk", p.quad, d)
                + p.mass * np.einsum("i,j,k->ijk", d, d, d)
            )
        return cls(float(total), com, quad, octu)


@dataclass
class LocalExpansion:
    """Taylor expansion of the far-field kernel about a node's COM.

    Potential and acceleration at displacement ``delta`` from the centre:

        phi(delta) = -G [ L0 + L1.delta + 1/2 delta.L2.delta
                          + 1/6 L3:(delta delta delta) ]
        a(delta)   = -grad phi
                   = +G [ L1 + L2.delta + 1/2 L3:(delta delta) ]
    """

    l0: float = 0.0
    l1: np.ndarray = field(default_factory=lambda: np.zeros(3))
    l2: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    l3: np.ndarray = field(default_factory=lambda: np.zeros((3, 3, 3)))

    def __iadd__(self, other: "LocalExpansion") -> "LocalExpansion":
        self.l0 += other.l0
        self.l1 += other.l1
        self.l2 += other.l2
        self.l3 += other.l3
        return self

    def shifted(self, d: np.ndarray) -> "LocalExpansion":
        """L2L: re-centre the expansion at ``center + d`` (truncated at
        total order 3)."""
        l0 = (
            self.l0
            + self.l1 @ d
            + 0.5 * d @ self.l2 @ d
            + np.einsum("ijk,i,j,k->", self.l3, d, d, d) / 6.0
        )
        l1 = self.l1 + self.l2 @ d + 0.5 * np.einsum("ijk,j,k->i", self.l3, d, d)
        l2 = self.l2 + np.einsum("ijk,k->ij", self.l3, d)
        return LocalExpansion(float(l0), l1, l2, self.l3.copy())

    def evaluate(
        self, delta: np.ndarray, g_newton: float = 1.0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """L2P: potential (n,) and acceleration (n, 3) at displacements
        ``delta`` (n, 3) from the expansion centre.

        The L tensors hold derivatives of g(r) = 1/r contracted with source
        moments, so phi = -G * sum_m L^(m) delta^m / m! and the acceleration
        is a = -grad phi = +G * sum_m L^(m+1) delta^m / m!.
        """
        phi = -g_newton * (
            self.l0
            + delta @ self.l1
            + 0.5 * np.einsum("ij,ni,nj->n", self.l2, delta, delta)
            + np.einsum("ijk,ni,nj,nk->n", self.l3, delta, delta, delta) / 6.0
        )
        grad = (
            self.l1[None, :]
            + np.einsum("ij,nj->ni", self.l2, delta)
            + 0.5 * np.einsum("ijk,nj,nk->ni", self.l3, delta, delta)
        )
        return phi, g_newton * grad


# -- scalar kernels ------------------------------------------------------------
def p2l(
    pos: np.ndarray, mass: np.ndarray, center: np.ndarray
) -> LocalExpansion:
    """Point-to-local: exact local expansion of point sources at a centre.

    Octo-Tiger's FMM works at *cell* granularity — each sub-grid cell is a
    monopole — so interactions between marginally separated sub-grids are
    resolved per source cell.  ``p2l`` reproduces that: L^(m) = sum_j m_j
    D^(m)(c - x_j), vectorised over all source cells of a sub-grid.  The
    only remaining error is the target-side Taylor truncation, which is what
    makes the near part of the far field accurate enough for a theta = 0.5
    opening criterion at sub-grid granularity.
    """
    x = center[None, :] - pos  # (n, 3): target-centre minus source points
    r2 = np.einsum("ni,ni->n", x, x)
    if (r2 <= 0.0).any():
        raise ZeroDivisionError("p2l source coincides with the target centre")
    inv_r = 1.0 / np.sqrt(r2)
    inv_r3 = inv_r / r2
    inv_r5 = inv_r3 / r2
    inv_r7 = inv_r5 / r2

    l0 = float(mass @ inv_r)
    l1 = -np.einsum("n,ni->i", mass * inv_r3, x)
    l2 = 3.0 * np.einsum("n,ni,nj->ij", mass * inv_r5, x, x) - _EYE * float(
        mass @ inv_r3
    )
    xd = np.einsum("n,ni,jk->nijk", mass * inv_r5, x, _EYE)
    l3 = -15.0 * np.einsum("n,ni,nj,nk->ijk", mass * inv_r7, x, x, x) + 3.0 * (
        xd + xd.transpose(0, 2, 1, 3) + xd.transpose(0, 3, 2, 1)
    ).sum(axis=0)
    return LocalExpansion(l0, l1, l2, l3)


def d_tensors(x: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """D0..D3 of g = 1/r at separation vector ``x`` (3,)."""
    r2 = float(x @ x)
    if r2 <= 0.0:
        raise ZeroDivisionError("derivative tensors at zero separation")
    r = np.sqrt(r2)
    inv_r = 1.0 / r
    inv_r3 = inv_r / r2
    inv_r5 = inv_r3 / r2
    inv_r7 = inv_r5 / r2

    d0 = inv_r
    d1 = -x * inv_r3
    d2 = 3.0 * np.outer(x, x) * inv_r5 - _EYE * inv_r3
    xd = np.einsum("i,jk->ijk", x, _EYE)
    d3 = (
        -15.0 * np.einsum("i,j,k->ijk", x, x, x) * inv_r7
        + 3.0 * (xd + xd.transpose(1, 0, 2) + xd.transpose(2, 1, 0)) * inv_r5
    )
    return d0, d1, d2, d3


def m2l(source: Multipole, x: np.ndarray, order: int = 3) -> LocalExpansion:
    """Local expansion at a target centre ``x = c_target - c_source``.

    ``order`` selects the source moments used: 1 monopole, 2 +quadrupole,
    3 +octupole (the gravity.order configuration / the FMM-order ablation).
    """
    if order not in (1, 2, 3):
        raise ValueError("m2l order must be 1, 2 or 3")
    d0, d1, d2, d3 = d_tensors(x)
    m0 = source.mass

    l0 = m0 * d0
    l1 = m0 * d1
    l2 = m0 * d2
    l3 = m0 * d3

    if order >= 2:
        q = source.quad
        l0 += 0.5 * float(np.einsum("ij,ij->", q, d2))
        l1 += 0.5 * np.einsum("jk,ijk->i", q, d3)
    if order >= 3:
        o = source.octu
        l0 += -float(np.einsum("ijk,ijk->", o, d3)) / 6.0

    return LocalExpansion(float(l0), l1, l2, l3)



def m2l_batch(
    mass: np.ndarray,
    com: np.ndarray,
    quad: np.ndarray,
    octu: np.ndarray,
    center: np.ndarray,
    order: int = 3,
) -> LocalExpansion:
    """Batched M2L: one local expansion from many source multipoles.

    ``mass`` (n,), ``com`` (n, 3), ``quad`` (n, 3, 3), ``octu`` (n, 3, 3, 3)
    describe the sources; the result is the sum of their local expansions at
    ``center``.  This is the vectorised form the solver uses — one call per
    target node over all of its interaction-list sources, mirroring how
    Octo-Tiger's Multipole kernel sweeps a stencil with SIMD types.
    """
    x = center[None, :] - com  # (n, 3)
    r2 = np.einsum("ni,ni->n", x, x)
    if (r2 <= 0.0).any():
        raise ZeroDivisionError("m2l_batch source coincides with target centre")
    inv_r = 1.0 / np.sqrt(r2)
    inv_r3 = inv_r / r2
    inv_r5 = inv_r3 / r2
    inv_r7 = inv_r5 / r2

    # Monopole contributions to every L order.
    l0 = float(mass @ inv_r)
    l1 = -np.einsum("n,ni->i", mass * inv_r3, x)
    l2 = 3.0 * np.einsum("n,ni,nj->ij", mass * inv_r5, x, x) - _EYE * float(
        mass @ inv_r3
    )
    # D3 contracted pieces appear twice (L3 monopole, L1 quadrupole); build
    # the weighted symmetric-delta part once per use instead of materialising
    # the full (n, 3, 3, 3) tensor where avoidable.
    xxx7 = np.einsum("n,ni,nj,nk->ijk", mass * inv_r7, x, x, x)
    xs5 = np.einsum("n,ni->i", mass * inv_r5, x)
    sym = (
        np.einsum("i,jk->ijk", xs5, _EYE)
        + np.einsum("j,ik->ijk", xs5, _EYE)
        + np.einsum("k,ij->ijk", xs5, _EYE)
    )
    l3 = -15.0 * xxx7 + 3.0 * sym

    if order >= 2:
        # Quadrupole: L0 += 1/2 Q:D2 ; L1 += 1/2 Q_jk D3_ijk.
        q_xx = np.einsum("nij,ni,nj->n", quad, x, x)
        q_tr = np.einsum("nii->n", quad)
        l0 += 0.5 * float((3.0 * q_xx * inv_r5 - q_tr * inv_r3).sum())
        # D3_ijk Q_jk = -15 x_i (x.Q.x)/r^7 + 3 (2 (Q x)_i + x_i tr Q)/r^5
        qx = np.einsum("nij,nj->ni", quad, x)
        l1 += 0.5 * (
            -15.0 * np.einsum("n,ni->i", q_xx * inv_r7, x)
            + 3.0
            * (
                2.0 * np.einsum("n,ni->i", inv_r5, qx)
                + np.einsum("n,ni->i", q_tr * inv_r5, x)
            )
        )
    if order >= 3:
        # Octupole: L0 += -1/6 O : D3.
        o_xxx = np.einsum("nijk,ni,nj,nk->n", octu, x, x, x)
        o_contr = np.einsum("nijj->ni", octu)  # contracted octupole vector
        o_dot = np.einsum("ni,ni->n", o_contr, x)
        l0 += -(
            -15.0 * float((o_xxx * inv_r7).sum()) + 9.0 * float((o_dot * inv_r5).sum())
        ) / 6.0

    return LocalExpansion(l0, l1, l2, l3)


def m2l_segmented_einsum(
    mass: np.ndarray,
    com: np.ndarray,
    quad: np.ndarray,
    octu: np.ndarray,
    centers: np.ndarray,
    indptr: np.ndarray,
    order: int = 3,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`repro.gravity.kernels.m2l_segmented` as einsum expressions
    over per-row derivative tensors (same arguments, same bits: the
    kernel copies the operand and summation order of every einsum here
    that it does not call itself)."""
    x = np.repeat(centers, np.diff(indptr), axis=0) - com  # (R, 3)
    r2 = np.einsum("ni,ni->n", x, x)
    if bool((r2 <= 0.0).any()):
        raise ZeroDivisionError("m2l_segmented source coincides with target centre")
    inv_r = 1.0 / np.sqrt(r2)
    inv_r3 = inv_r / r2
    inv_r5 = inv_r3 / r2
    inv_r7 = inv_r5 / r2

    m3 = mass * inv_r3
    m5 = mass * inv_r5
    m7 = mass * inv_r7

    l0r = mass * inv_r
    l1r = -m3[:, None] * x
    l2r = 3.0 * np.einsum("n,ni,nj->nij", m5, x, x) - m3[:, None, None] * _EYE
    xs5 = m5[:, None] * x
    l3r = -15.0 * np.einsum("n,ni,nj,nk->nijk", m7, x, x, x) + 3.0 * (
        np.einsum("ni,jk->nijk", xs5, _EYE)
        + np.einsum("nj,ik->nijk", xs5, _EYE)
        + np.einsum("nk,ij->nijk", xs5, _EYE)
    )

    if order >= 2:
        q_xx = np.einsum("nij,ni,nj->n", quad, x, x)
        q_tr = np.einsum("nii->n", quad)
        l0r += 0.5 * (3.0 * q_xx * inv_r5 - q_tr * inv_r3)
        qx = np.einsum("nij,nj->ni", quad, x)
        l1r += 0.5 * (
            -15.0 * (q_xx * inv_r7)[:, None] * x
            + 3.0 * (2.0 * inv_r5[:, None] * qx + (q_tr * inv_r5)[:, None] * x)
        )
    if order >= 3:
        o_xxx = np.einsum("nijk,ni,nj,nk->n", octu, x, x, x)
        o_contr = np.einsum("nijj->ni", octu)
        o_dot = np.einsum("ni,ni->n", o_contr, x)
        l0r += -(-15.0 * o_xxx * inv_r7 + 9.0 * o_dot * inv_r5) / 6.0

    starts = np.asarray(indptr[:-1], dtype=np.intp)
    return (
        np.add.reduceat(l0r, starts),
        np.add.reduceat(l1r, starts, axis=0),
        np.add.reduceat(l2r, starts, axis=0),
        np.add.reduceat(l3r, starts, axis=0),
    )


def stacked_octant_moments(
    pos: np.ndarray,
    mass: np.ndarray,
    n: int,
    node_center: np.ndarray,
    node_size: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sub-moments of a leaf's cells split into its eight octants.

    Returns ``(mass (8,), com (8, 3), quad (8, 3, 3), octu (8, 3, 3, 3))``.
    Used as cell-resolved sources for marginally separated interactions:
    halving the source extent is what keeps the near part of the far field
    accurate at sub-grid granularity (Octo-Tiger resolves these per cell).

    ``pos``/``mass`` are the raveled (C-order, ij-indexed) cell arrays of an
    ``n**3`` sub-grid; empty octants anchor at their geometric centre.
    """
    octant = octant_ids(n)
    masses = np.empty(8)
    coms = np.empty((8, 3))
    quads = np.empty((8, 3, 3))
    octus = np.empty((8, 3, 3, 3))
    for o in range(8):
        sel = octant == o
        offset = (
            np.array([(o >> 0) & 1, (o >> 1) & 1, (o >> 2) & 1], dtype=float) - 0.5
        ) * (node_size / 2.0)
        geo_center = node_center + offset
        mp = Multipole.from_points(pos[sel], mass[sel], fallback_center=geo_center)
        masses[o] = mp.mass
        coms[o] = mp.center
        quads[o] = mp.quad
        octus[o] = mp.octu
    return masses, coms, quads, octus


def pairwise_accumulate(
    pos_a: np.ndarray,
    mass_a: np.ndarray,
    pos_b: np.ndarray,
    mass_b: np.ndarray,
    self_pair: bool,
    g_newton: float = 1.0,
    compute_b: bool = True,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """Potentials and accelerations both sides of one interaction block.

    Returns ``(phi_a, acc_a, phi_b, acc_b)``; the ``b`` outputs are ``None``
    when ``compute_b`` is false (used by the blocked direct sum, which visits
    every ordered block anyway).  ``self_pair`` masks the diagonal.
    """
    # r2 = |a|^2 + |b|^2 - 2 a.b, built in place on the GEMM output.
    r2 = pos_a @ pos_b.T
    r2 *= -2.0
    r2 += np.einsum("ni,ni->n", pos_a, pos_a)[:, None]
    r2 += np.einsum("ni,ni->n", pos_b, pos_b)[None, :]
    np.maximum(r2, 0.0, out=r2)
    if self_pair:
        np.fill_diagonal(r2, np.inf)

    inv_r = np.sqrt(r2)
    np.reciprocal(inv_r, out=inv_r)
    inv_r3 = inv_r * inv_r
    inv_r3 *= inv_r

    phi_a = inv_r @ mass_b
    phi_a *= -g_newton
    w = inv_r3 * mass_b[None, :]
    acc_a = pos_a * w.sum(axis=1)[:, None]
    acc_a -= w @ pos_b
    acc_a *= -g_newton

    if not compute_b:
        return phi_a, acc_a, None, None
    phi_b = mass_a @ inv_r
    phi_b *= -g_newton
    inv_r3 *= mass_a[:, None]  # reuse the buffer: V = m_a / r^3
    acc_b = inv_r3.T @ pos_a
    acc_b -= pos_b * inv_r3.sum(axis=0)[:, None]
    acc_b *= g_newton
    return phi_a, acc_a, phi_b, acc_b


def count_m2l_by_level(far_pairs: List[Tuple[NodeKey, NodeKey]]) -> Dict[int, int]:
    """Per-level M2L interaction counts, counting *both* directions.

    Each far pair feeds two M2L conversions (a's local from b and b's from
    a), so both endpoints' levels are counted — the seed solver counted
    only ``ka``'s level, undercounting the per-level workload the distsim
    gravity model sees by up to 2x.  The sum over levels is therefore
    ``2 * len(far_pairs)``.
    """
    by_level: Dict[int, int] = {}
    for ka, kb in far_pairs:
        by_level[ka[0]] = by_level.get(ka[0], 0) + 1
        by_level[kb[0]] = by_level.get(kb[0], 0) + 1
    return by_level


# -- the per-node solve --------------------------------------------------------
def leaf_points(leaf: OctreeNode) -> Tuple[np.ndarray, np.ndarray]:
    """Cell centres (nc, 3) and cell masses (nc,) of a leaf."""
    x, y, z = leaf.cell_centers()
    pos = np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)
    rho = leaf.subgrid.interior_view(Field.RHO).ravel()
    return pos, rho * leaf.cell_volume


def solve_reference(solver: FmmSolver, mesh: AmrMesh) -> FmmResult:
    """Unbatched per-node solve of ``mesh`` under ``solver``'s settings.

    Re-derives the traversal and every intermediate on each call; the
    planned :meth:`FmmSolver.solve` must agree to ~1e-13 relative and
    report the same :class:`FmmStats`.  Sets ``solver.last_stats`` like a
    real solve.
    """
    stats = FmmStats()
    leaves = mesh.leaves()
    points: Dict[NodeKey, Tuple[np.ndarray, np.ndarray]] = {
        leaf.key: leaf_points(leaf) for leaf in leaves
    }

    # Phase 1: bottom-up moments (P2M on leaves, M2M upward).
    moments: Dict[NodeKey, Multipole] = {}
    max_level = mesh.max_level()
    for level in range(max_level, -1, -1):
        for node in mesh.nodes_at_level(level):
            if node.is_leaf:
                pos, mass = points[node.key]
                moments[node.key] = Multipole.from_points(
                    pos, mass, fallback_center=node.center
                )
                stats.p2m += 1
            else:
                moments[node.key] = Multipole.combine(
                    [moments[k] for k in node.children_keys()],
                    fallback_center=node.center,
                )
                stats.m2m += 1

    far_pairs, near_pairs, p2p_pairs = traverse(mesh, THETA)
    stats.m2l_pairs = len(far_pairs)
    stats.near_pairs = len(near_pairs)
    stats.m2l_by_level = count_m2l_by_level(far_pairs)

    # Octant sub-moments for every leaf that participates in near pairs.
    octants: Dict[NodeKey, Tuple[np.ndarray, ...]] = {}

    def octants_of(key: NodeKey) -> Tuple[np.ndarray, ...]:
        if key not in octants:
            leaf = mesh.nodes[key]
            pos, mass = points[key]
            octants[key] = stacked_octant_moments(
                pos, mass, mesh.n, leaf.center, leaf.node_size
            )
        return octants[key]

    # Phase 2: same-level cell-to-cell interactions, batched per target.
    far_sources: Dict[NodeKey, List[NodeKey]] = {}
    near_sources: Dict[NodeKey, List[NodeKey]] = {}
    for ka, kb in far_pairs:
        far_sources.setdefault(ka, []).append(kb)
        far_sources.setdefault(kb, []).append(ka)
    for ka, kb in near_pairs:
        near_sources.setdefault(ka, []).append(kb)
        near_sources.setdefault(kb, []).append(ka)

    locals_: Dict[NodeKey, LocalExpansion] = {
        key: LocalExpansion() for key in mesh.nodes
    }
    # Far sources expand about the target node's COM.
    for target_key, sources in far_sources.items():
        mass_list = []
        com_list = []
        quad_list = []
        octu_list = []
        for src in sources:
            mp = moments[src]
            if mp.mass <= 0.0:
                continue
            mass_list.append(mp.mass)
            com_list.append(mp.center)
            quad_list.append(mp.quad)
            octu_list.append(mp.octu)
        if not mass_list:
            continue
        locals_[target_key] += m2l_batch(
            np.array(mass_list),
            np.stack(com_list),
            np.stack(quad_list),
            np.stack(octu_list),
            moments[target_key].center,
            order=solver.order,
        )

    # Near sources expand about *octant* centres of the target leaf —
    # halving both the source extent (octant sub-moments) and the target
    # Taylor radius, which is what keeps marginally separated pairs
    # accurate.  Contributions are stored per octant and evaluated in
    # the L2P step below.
    octant_locals: Dict[NodeKey, List[LocalExpansion]] = {}
    for target_key, sources in near_sources.items():
        mass_list = []
        com_list = []
        quad_list = []
        octu_list = []
        for src in sources:
            om, oc, oq, oo = octants_of(src)
            keep = om > 0.0
            if keep.any():
                mass_list.append(om[keep])
                com_list.append(oc[keep])
                quad_list.append(oq[keep])
                octu_list.append(oo[keep])
        if not mass_list:
            continue
        src_mass = np.concatenate(mass_list)
        src_com = np.concatenate(com_list)
        src_quad = np.concatenate(quad_list)
        src_octu = np.concatenate(octu_list)
        tgt_oct = octants_of(target_key)
        per_octant = []
        for o in range(8):
            per_octant.append(
                m2l_batch(
                    src_mass,
                    src_com,
                    src_quad,
                    src_octu,
                    tgt_oct[1][o],  # octant COM (geometric centre if empty)
                    order=solver.order,
                )
            )
        octant_locals[target_key] = per_octant

    # Phase 3: top-down L2L.
    for level in range(0, max_level):
        for node in mesh.nodes_at_level(level):
            if node.is_leaf:
                continue
            parent_local = locals_[node.key]
            parent_com = moments[node.key].center
            for child_key in node.children_keys():
                child_com = moments[child_key].center
                locals_[child_key] += parent_local.shifted(child_com - parent_com)
                stats.l2l += 1

    # Far-field evaluation per leaf cell (L2P).
    phi: Dict[NodeKey, np.ndarray] = {}
    accel: Dict[NodeKey, np.ndarray] = {}
    n = mesh.n
    oct_of_cell = octant_ids(n)
    for leaf in leaves:
        pos, _ = points[leaf.key]
        com = moments[leaf.key].center
        p, a = locals_[leaf.key].evaluate(pos - com, G_NEWTON)
        per_octant = octant_locals.get(leaf.key)
        if per_octant is not None:
            oct_coms = octants_of(leaf.key)[1]
            for o in range(8):
                sel = oct_of_cell == o
                po, ao = per_octant[o].evaluate(
                    pos[sel] - oct_coms[o], G_NEWTON
                )
                p[sel] += po
                a[sel] += ao
        phi[leaf.key] = p.reshape(n, n, n)
        accel[leaf.key] = a.T.reshape(3, n, n, n)

    # Near field: direct sums.
    for ka, kb in p2p_pairs:
        stats.p2p_pairs += 1
        _p2p(solver, points, phi, accel, ka, kb, n)

    # Conservation projections, on the leaves stacked in slot (sorted-key)
    # order; each leaf's accelerations stay in the (nc, 3) a.T layout.
    keys = sorted(points)
    mass = np.stack([points[k][1] for k in keys])
    pos = np.stack([points[k][0] for k in keys])
    acc = np.stack([accel[k].reshape(3, -1).T for k in keys]).transpose(0, 2, 1)
    if solver.momentum_correction:
        project_momentum(mass, acc)
    if solver.angmom_correction:
        project_angular_momentum(mass, pos, acc)

    solver.last_stats = stats
    return FmmResult(
        keys,
        np.stack([phi[k] for k in keys]),
        acc.reshape(len(keys), 3, n, n, n),
        stats,
    )


def _p2p(
    solver: FmmSolver,
    points: Dict[NodeKey, Tuple[np.ndarray, np.ndarray]],
    phi: Dict[NodeKey, np.ndarray],
    accel: Dict[NodeKey, np.ndarray],
    ka: NodeKey,
    kb: NodeKey,
    n: int,
) -> None:
    """Direct cell-cell interaction between two leaves (or one with
    itself).  Pairwise antisymmetric by construction."""
    pos_a, m_a = points[ka]
    pos_b, m_b = points[kb]
    same = ka == kb
    thr = solver.empty_mass_threshold
    if thr > 0.0:
        a_empty = float(m_a.sum()) <= thr
        b_empty = float(m_b.sum()) <= thr
        if a_empty and b_empty:
            return
        if b_empty:  # nothing sources onto a; only b feels a
            phi_b, acc_b, _, _ = pairwise_accumulate(
                pos_b, m_b, pos_a, m_a, self_pair=False,
                g_newton=G_NEWTON, compute_b=False,
            )
            phi[kb] += phi_b.reshape(n, n, n)
            accel[kb] += acc_b.T.reshape(3, n, n, n)
            return
        if a_empty and not same:
            phi_a, acc_a, _, _ = pairwise_accumulate(
                pos_a, m_a, pos_b, m_b, self_pair=False,
                g_newton=G_NEWTON, compute_b=False,
            )
            phi[ka] += phi_a.reshape(n, n, n)
            accel[ka] += acc_a.T.reshape(3, n, n, n)
            return
    phi_a, acc_a, phi_b, acc_b = pairwise_accumulate(
        pos_a,
        m_a,
        pos_b,
        m_b,
        self_pair=same,
        g_newton=G_NEWTON,
        compute_b=not same,
    )
    phi[ka] += phi_a.reshape(n, n, n)
    accel[ka] += acc_a.T.reshape(3, n, n, n)
    if not same:
        phi[kb] += phi_b.reshape(n, n, n)
        accel[kb] += acc_b.T.reshape(3, n, n, n)
