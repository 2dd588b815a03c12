"""Batched hydro execution plan: stacked sub-grid kernels, vectorized ghosts.

The per-leaf reference integrator walks ``mesh.leaves()`` in Python three
times per RK3 stage; on a level-L mesh that is hundreds of tiny NumPy calls
per step.  Following the same plan/execute split PR 1 gave the gravity
solver (:class:`repro.gravity.plan.FmmPlan`) — and the paper's kernel
restructuring for wide vector execution on A64FX (SVE vectorization, Fig 7)
— :class:`HydroPlan` captures everything that is a pure function of the mesh
*topology* once, and the execute path runs a handful of wide kernels:

* **storage arena** — all leaf sub-grids move into one flat ``float64``
  arena, ordered by ``(level, morton)``; each leaf's
  ``(NFIELDS, M, M, M)`` chunk is *adopted* as its ``subgrid.data`` (a view,
  so every existing per-leaf API keeps working), and every maximal run of
  same-level slots one rank owns forms one contiguous
  ``(B, NFIELDS, M, M, M)`` block;
* **ghost bundles** — the whole-mesh ghost exchange is one
  :class:`~repro.comms.bundle.PairBundle` per ordered rank pair
  (:func:`repro.comms.bundle.build_bundle_plan`): a fancy-indexed gather
  into a flat payload and a scatter out of it.  On one rank that is the
  single ``(0, 0)`` bundle and its ``apply`` is the serial ghost fill;
* **stacked kernels** — reconstruction, HLL fluxes, flux divergence,
  boundary-flux extraction, sources, the RK3 convex combination, floors,
  the tau resync and the CFL signal reduction each run once per block
  instead of once per leaf.  They reuse the *same* elementwise building
  blocks as the per-leaf reference (``primitives_from_conserved``, and
  ``reconstruct_axis`` / ``hll_flux`` of ``tests/oracles/hydro_step.py``),
  so batching cannot change rounding: the batched step is bit-identical to
  the reference step.

There is **one** plan for any rank count (:func:`build_hydro_plan`): the
serial integrator steps ``nranks=1``, the process backend forks over
``nranks=P`` adopted into shared memory, the DES driver steps
``nranks=nodes`` on the virtual runtime.  A plan is valid while the
mesh's content :meth:`~repro.octree.mesh.AmrMesh.fingerprint` equals the one
it was built for *and* the leaves still reference its arena views; a
rebuild goes through the lifecycle every plan kind shares
(:class:`HydroPlanLifecycle`, ``docs/plan_lifecycle.md``).  Scratch buffers
live in a :class:`ScratchArena` reused across stages and steps; the hot
path allocates nothing (reprolint R001).

See ``docs/hydro_plan.md`` for the full architecture.
"""

from __future__ import annotations

import math
import sys
import weakref
from contextlib import nullcontext
from itertools import chain
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.analysis.effects import (
    MODE_READ,
    MODE_WRITE,
    REGION_ALL,
    REGION_INTERIOR,
    SEG_ACCEL,
    SEG_FIELDS,
    SEG_FLUX,
    field_access_rows,
    slot_range_rows,
)
from repro.comms.bundle import INDEX_FIELDS, GhostBundlePlan, adopt_arena, build_bundle_plan
from repro.hydro.eos import IdealGasEOS
from repro.hydro.reflux import apply_flux_table, build_reflux_table
from repro.hydro.primitives import PRIM_KEYS, primitives_from_conserved
from repro.octree.fields import Field, NFIELDS
from repro.octree.ghost import FaceTraceCache
from repro.octree.mesh import AmrMesh
from repro.octree.node import NodeKey
from repro.octree.partition import sfc_assignment
from repro.util.lifecycle import PlanLifecycle


class ScratchArena:
    """Named grow-only buffers, reused across stages and steps, keeping the
    hot loops allocation-free.

    One buffer per ``(name, dtype)``: ``get`` returns a contiguous prefix
    of it in the asked shape and reallocates only for a larger one, so a
    run's shorter remainder batch reuses the full batch's set.  No caller
    keeps a view across a ``get`` of the same name.
    """

    def __init__(self) -> None:
        self._buffers: Dict[tuple, np.ndarray] = {}
        self._views: Dict[tuple, np.ndarray] = {}

    def get(self, name, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        key = (name, tuple(shape), dtype)
        view = self._views.get(key)
        if view is None:
            size = math.prod(shape)
            buf = self._buffers.get((name, dtype))
            if buf is None or buf.size < size:
                buf = self._buffers[(name, dtype)] = np.empty(size, dtype=dtype)
                self._views = {k: v for k, v in self._views.items() if k[::2] != (name, dtype)}
            view = self._views[key] = buf[:size].reshape(shape)
        return view

    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._buffers.values())


#: Stencil radius of the hydro reconstruction: a cell's RHS reads at most
#: this many cells away along each sweep axis (MUSCL reconstruction of the
#: faces around cell ``i`` reads cells ``[i - 2, i + 2]``).  The ghost
#: margin must be at least this wide.
STENCIL_RADIUS = 2


class SlotRun(NamedTuple):
    """One maximal run of consecutive same-level arena slots owned by one
    rank — the unit of stacked kernel execution (on one rank: a whole
    refinement level, leaves sort level-major)."""

    lo: int
    hi: int
    dx: float
    #: (hi - lo, n, n, n) interior cell-centre coordinates (rotating frame).
    x: np.ndarray
    y: np.ndarray


class HydroPlan:
    """The hydro step's topology plan, for any rank count.

    Build with :func:`build_hydro_plan` (parameters documented there);
    validity is checked with :meth:`matches`.  Building the plan *adopts*
    the mesh's leaf storage into one flat arena — field values are
    preserved, and ``leaf.subgrid.data`` stays a live
    ``(NFIELDS, M, M, M)`` array for every per-leaf consumer.  Everything
    else is in sorted-leaf slot terms: the rank of every slot, per-rank
    :class:`SlotRun` lists, the ghost bundles and the reflux table;
    :class:`RankStep` is one rank's share, the object every interpreter
    drives.
    """

    def __init__(
        self,
        mesh: AmrMesh,
        nranks: int = 1,
        assignment: Optional[Dict[NodeKey, int]] = None,
        out: Optional[np.ndarray] = None,
        trace_cache: Optional[FaceTraceCache] = None,
        reuse: Optional["HydroPlan"] = None,
        payload: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        self.mesh_ref = weakref.ref(mesh)
        #: Content hash of the topology this plan was built for.
        self.fingerprint = mesh.fingerprint()
        self.n = mesh.n
        self.ghost_width = mesh.ghost
        self.m = self.n + 2 * self.ghost_width
        self.nranks = nranks

        leaves = sorted(mesh.leaves(), key=lambda nd: nd.key)
        self.leaf_keys: List[NodeKey] = [leaf.key for leaf in leaves]
        self.slot: Dict[NodeKey, int] = {k: i for i, k in enumerate(self.leaf_keys)}
        if assignment is None:
            assignment = sfc_assignment(mesh, nranks)
        #: Owning rank of every slot.
        self.rank_of = np.array(
            [assignment[k] for k in self.leaf_keys], dtype=np.int64
        )

        self.arena, offsets = adopt_arena(mesh, out=out)
        self.views: List[np.ndarray] = [leaf.subgrid.data for leaf in leaves]

        # Cell centres are pure functions of the key (within one geometry
        # family): rebuilds reuse the previous plan's rows for surviving
        # leaves (exact, not approximate).
        reuse_xy: Dict[NodeKey, Tuple[np.ndarray, np.ndarray]] = {}
        if reuse is not None:
            for run in (r for rank_runs in reuse.runs for r in rank_runs):
                for j, key in enumerate(reuse.leaf_keys[run.lo : run.hi]):
                    reuse_xy[key] = (run.x[j], run.y[j])

        # Each maximal run of same-rank same-level slots is one contiguous
        # arena block and stacks into a (B, NFIELDS, M, M, M) view.
        self.runs: List[List[SlotRun]] = [[] for _ in range(nranks)]
        start = 0
        while start < len(leaves):
            rank, level = self.rank_of[start], leaves[start].level
            stop = start
            while (
                stop < len(leaves)
                and self.rank_of[stop] == rank
                and leaves[stop].level == level
            ):
                stop += 1
            x = np.empty((stop - start, self.n, self.n, self.n))
            y = np.empty_like(x)
            for j, leaf in enumerate(leaves[start:stop]):
                cached = reuse_xy.get(leaf.key)
                if cached is not None:
                    x[j], y[j] = cached
                else:
                    x[j], y[j], _ = leaf.cell_centers()
            self.runs[rank].append(SlotRun(start, stop, leaves[start].dx, x, y))
            start = stop

        if payload is not None:  # cache hit: no face is re-traced
            self.ghosts = GhostBundlePlan.from_payload(payload, self.fingerprint)
        else:
            self.ghosts = build_bundle_plan(
                mesh, offsets, locality=assignment, trace_cache=trace_cache
            )

        #: Mesh-free coarse-fine flux correction rows in slot terms; empty
        #: when no coarse-fine interface exists (nothing to reflux).
        self.reflux_table = (
            build_reflux_table(mesh, self.slot)
            if self.ghosts.face_counts["fine"] > 0 else []
        )
        self.scratch = ScratchArena()
        self._rows: Dict[tuple, np.ndarray] = {}

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_keys)

    def sub_batches(self, rank: int) -> List[List[Tuple[int, int, bool]]]:
        """Per run of ``rank``: its rhs sub-batches ``(lo, hi, deferred)``
        of at most :data:`RHS_BLOCK_CELLS` cells.  A batch holding a reflux
        target (a coarse slot of :attr:`reflux_table`) is *deferred*: its
        update waits for the reflux op to correct its dudt."""
        nb = max(1, RHS_BLOCK_CELLS // self.n**3)
        targets = {row[1] for row in self.reflux_table}
        cuts = [[(lo, min(lo + nb, r.hi)) for lo in range(r.lo, r.hi, nb)] for r in self.runs[rank]]
        return [[(lo, hi, not targets.isdisjoint(range(lo, hi))) for lo, hi in run] for run in cuts]

    def effect_rows(self, op: tuple, who: Any = None) -> np.ndarray:
        """:func:`op_effect_rows`, memoised per topology; ``who=None`` is
        the union over every unit that runs ``op`` (each rank, or each
        bundle pair of a ``ghost``).  ``op[:3]`` keys the memo: an rhs's
        rows do not depend on its stage coefficients."""
        key = (op[:3], who)
        if key not in self._rows:
            every = sorted(self.ghosts.bundles) if op[0] == "ghost" else range(self.nranks)
            rows = [op_effect_rows(self, op, u) for u in ([who] if who is not None else every)]
            self._rows[key] = np.vstack(rows or [np.empty((0, 5), dtype=np.int64)])
        return self._rows[key]

    def matches(self, mesh: AmrMesh) -> bool:
        """Whether this plan is still valid for ``mesh``.

        The content fingerprint covers regrids (including a regrid that
        lands back on a previously-seen topology, which revalidates); the
        view-identity check covers anything else that rebinds leaf storage
        away from this plan's arena (another plan adopting the mesh, a
        checkpoint restore, ...).
        """
        if self.mesh_ref() is not mesh:
            return False
        if self.fingerprint != mesh.fingerprint():
            return False
        nodes = mesh.nodes
        return all(
            nodes[key].subgrid.data is view
            for key, view in zip(self.leaf_keys, self.views)
        )

    def nbytes(self) -> Dict[str, int]:
        """Bytes this plan holds, by owner: the leaf ``arena``, ``scratch``
        (the kernels' :class:`ScratchArena` and the bundles' pack buffers),
        the ghost ``bundles``' index arrays, the ``runs``' cell-centre rows
        and the ``reflux`` table's row tuples."""
        bundles = self.ghosts.bundles.values()
        rows = [(r, r[5], *r[5]) for r in self.reflux_table]
        return {
            "arena": self.arena.nbytes,
            "scratch": self.scratch.nbytes() + sum(b.buffer_nbytes for b in bundles),
            "bundles": sum(getattr(b, f).nbytes for b in bundles for f in INDEX_FIELDS),
            "runs": sum(r.x.nbytes + r.y.nbytes for rs in self.runs for r in rs),
            "reflux": sum(map(sys.getsizeof, chain.from_iterable(rows))),
        }

    # -- the slice broadcast (process backend) --------------------------------
    def rank_slice(self, rank: int) -> Dict[str, Any]:
        """The topology of this plan as ``rank`` needs it (its own runs,
        the bundles it applies) — what the executor sends each worker.  A
        forked worker cannot derive any of it: the pool forks before the
        first plan exists, and its mesh copy is stale the moment the parent
        regrids."""
        mine = {p: b for p, b in self.ghosts.bundles.items() if p[1] == rank}
        piece = {name: getattr(self, name) for name in _SLICE_ATTRS}
        piece["runs"] = [rs if r == rank else [] for r, rs in enumerate(self.runs)]
        piece["ghosts"] = GhostBundlePlan(mine, self.ghosts.face_counts, self.fingerprint)
        return piece

    @classmethod
    def from_slice(cls, piece: Dict[str, Any], arena: np.ndarray) -> "HydroPlan":
        """A worker's plan: one :meth:`rank_slice` over the view ``arena``
        of the shared pages.  It holds no mesh and no face traces, so it
        steps its rank and never validates or rebuilds itself."""
        plan = cls.__new__(cls)
        vars(plan).update(piece, arena=arena, scratch=ScratchArena(), _rows={})
        return plan


#: What a :meth:`HydroPlan.rank_slice` carries besides its runs and bundles.
_SLICE_ATTRS = ("fingerprint", "n", "ghost_width", "m", "nranks", "rank_of",
                "leaf_keys", "slot", "reflux_table")


def build_hydro_plan(
    mesh: AmrMesh,
    nranks: int = 1,
    assignment: Optional[Dict[NodeKey, int]] = None,
    out: Optional[np.ndarray] = None,
    trace_cache: Optional[FaceTraceCache] = None,
    reuse: Optional[HydroPlan] = None,
    payload: Optional[Dict[str, np.ndarray]] = None,
) -> HydroPlan:
    """Build the hydro plan for ``mesh`` over ``nranks`` ranks.

    Adopts leaf storage; the only builder of arena layout, slot runs,
    ghost bundles and reflux table.

    ``assignment`` maps each leaf key to its rank (default: the SFC
    partition of the live topology,
    :func:`repro.octree.partition.sfc_assignment`, which every interpreter
    of the step program uses).  It is an explicit input, never a read of
    ``leaf.locality``, which a regrid leaves stale (refined children
    inherit their parent's).  ``out`` adopts the leaves into a
    caller-supplied flat ``float64`` view (the executor's shared memory)
    instead of private memory.  ``trace_cache`` (per-face ghost traces a
    regrid left intact), ``reuse`` (the cell-centre rows of a previous
    plan of the same geometry family,
    :meth:`~repro.util.lifecycle.PlanLifecycle.donor`) and ``payload``
    (a :meth:`~repro.comms.bundle.GhostBundlePlan.to_payload` cache hit:
    no tracing at all) change build time only — the plan arrays are a pure
    function of topology and assignment either way.
    """
    return HydroPlan(
        mesh, nranks=nranks, assignment=assignment, out=out,
        trace_cache=trace_cache, reuse=reuse, payload=payload,
    )


class HydroPlanLifecycle(PlanLifecycle):
    """The hydro kind of the shared plan lifecycle; also owns the single
    :class:`~repro.octree.ghost.FaceTraceCache`.  A request is ``nranks``
    plus, for the process backend, ``out`` — the shm view to adopt into."""

    kind = "hydro"

    def __init__(self, cache=None) -> None:  # noqa: ANN001 - PlanCache
        super().__init__(cache)
        #: Per-face ghost traces reused across rebuilds, valid for the
        #: topology :attr:`topology` records.
        self.traces = FaceTraceCache()

    def matches(self, plan, mesh, nranks=1, out=None) -> bool:  # noqa: ANN001
        return (
            plan.nranks == nranks
            and plan.matches(mesh)
            and (out is None or np.may_share_memory(plan.arena, out))
        )

    def params(self, mesh, nranks=1, out=None) -> Dict:  # noqa: ANN001
        return {"n": mesh.n, "ghost": mesh.ghost, "nranks": nranks}

    def build(self, tier, prev, mesh, changed, payload=None, **request):  # noqa: ANN001, ANN201
        # Every tier is the one builder, handed different things.  The
        # traces with no changed participant serve the live topology (none
        # survive a build without a donor); a delta build needs some.
        self.traces.drop(changed)
        if tier == "delta" and not self.traces:
            return None
        return build_hydro_plan(mesh, trace_cache=self.traces, reuse=prev, payload=payload, **request)  # reprolint: sanctioned-cold-build

    def payload_of(self, plan) -> Dict[str, np.ndarray]:  # noqa: ANN001
        return plan.ghosts.to_payload()


def _timer(registry, name: str):
    return registry.timer(name) if registry is not None else nullcontext()


#: Index of each primitive key within the stacked reconstruction array.
_PRIM_SLOT = {key: i for i, key in enumerate(PRIM_KEYS)}


def _axslice(ndim: int, ax: int, lo, hi) -> tuple:
    index = [slice(None)] * ndim
    index[ax] = slice(lo, hi)
    return tuple(index)


#: All-ones uint64: multiplying a bool array by it yields a full bit mask.
_U64_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
#: Bit pattern of float64 1.0 (the HLL degenerate-denominator fallback).
_U64_ONE_F = np.uint64(np.float64(1.0).view(np.uint64))


# Bit-pattern selects: ``where(cond, a, b) == b ^ ((a ^ b) & mask)`` on the
# uint64 views, with ``mask = bool * _U64_ONES``.  Identical to ``np.where``
# for every input (NaN, infinities and signed zeros included) and ~4x faster
# than NumPy's select on branch-random masks; used inline in the HLL kernel.


def _muscl_scratch(w: np.ndarray, ax: int, scratch: ScratchArena) -> np.ndarray:
    """Scratch-buffered MUSCL reconstruction, bit-identical to the
    reference ``reconstruct_axis`` (``tests/oracles/hydro_step.py``).

    Same elementwise expression tree, two structural savings: every
    temporary lives in the arena (the reference's face-sized temporaries
    sit above the allocator's mmap threshold, so it page-faults fresh pages
    on every call), and the reference's ``d_minus`` / ``d_plus`` are the
    same first-difference array shifted by one, so one diff (and one
    ``abs``) pass serves both.

    Returns one ``(2,) + face_shape`` stack — row 0 the left state, row 1
    the right — so the Riemann solve can run both sides per pass.
    """
    nd = w.ndim
    mx = w.shape[ax]
    sh_d, sh_m, sh_f = (w.shape[:ax] + (mx - k,) + w.shape[ax + 1 :] for k in (1, 2, 3))
    diff = scratch.get("recon.diff", sh_d)
    absd = scratch.get("recon.absd", sh_d)
    prod = scratch.get("recon.prod", sh_m)
    flag = scratch.get("recon.flag", sh_m, dtype=bool)
    msk = scratch.get("recon.msk", sh_m, dtype=np.uint64)
    slope = scratch.get("recon.slope", sh_m)
    wlr = scratch.get("recon.wlr", (2,) + sh_f)
    w_left = wlr[0]
    w_right = wlr[1]

    # diff[i] = w[i+1] - w[i]; d_minus = diff[:-1], d_plus = diff[1:].
    np.subtract(w[_axslice(nd, ax, 1, None)], w[_axslice(nd, ax, 0, mx - 1)], out=diff)
    d_minus = diff[_axslice(nd, ax, 0, mx - 2)]
    d_plus = diff[_axslice(nd, ax, 1, None)]
    # minmod: where(a*b > 0, where(|a| < |b|, a, b), 0).  The inner select
    # only survives where a and b share a sign (the outer mask zeroes the
    # rest to exactly +0.0), and there it picks the smaller-magnitude
    # operand with the common sign — i.e. copysign(min(|a|, |b|), a),
    # bit-for-bit (a NaN in either operand still washes out through the
    # outer mask, whose comparison is False for NaN products).
    np.abs(diff, out=absd)
    np.minimum(
        absd[_axslice(nd, ax, 0, mx - 2)], absd[_axslice(nd, ax, 1, None)], out=slope
    )
    np.copysign(slope, d_minus, out=slope)
    np.multiply(d_minus, d_plus, out=prod)
    np.greater(prod, 0.0, out=flag)
    np.multiply(flag, _U64_ONES, out=msk)
    sv = slope.view(np.uint64)
    sv &= msk
    slope *= 0.5

    center = w[_axslice(nd, ax, 1, mx - 1)]
    np.add(
        center[_axslice(nd, ax, 0, mx - 3)],
        slope[_axslice(nd, ax, 0, mx - 3)],
        out=w_left,
    )
    np.subtract(
        center[_axslice(nd, ax, 1, None)],
        slope[_axslice(nd, ax, 1, None)],
        out=w_right,
    )
    return wlr


def _hll_scratch(
    wlr: np.ndarray,
    axis: int,
    eos: IdealGasEOS,
    scratch: ScratchArena,
) -> np.ndarray:
    """Scratch-buffered HLL solve over a ``(2,) + (K,) + face_shape`` side
    stack (row 0 the left states, row 1 the right).

    Bit-identical to the reference ``hll_flux`` (the signal
    output, unused on this path, is skipped).  Returns a scratch array of
    shape ``(NFIELDS,) + face_shape`` that stays valid until the next
    ``_hll_scratch`` call on the same arena.

    Structural savings over the reference, none of which move a bit:

    * both sides run through every conserved / flux / sound-speed
      expression as one ufunc call on the side-stacked pair, halving the
      NumPy dispatch count;
    * the passive rows (tau / f1 / f2, conserved == primitive) are never
      copied into a conserved stack — it holds the five other rows, and
      the passive flux and jump terms read the primitives directly
      (``PRIM_KEYS[5:]`` lines up with ``Field.TAU..FRAC2``);
    * ``max(p, 0)`` is computed once per side and reused by the pressure
      flux and the sound speed (the reference evaluates it three times).
    """
    fshape = wlr.shape[2:]
    wide = (NFIELDS,) + fshape
    npass = Field.TAU  # first passive row; rows [npass:] stay primitive
    u2 = scratch.get("hll.u2", (2, npass) + fshape)
    f2 = scratch.get("hll.f2", (2,) + wide)
    fs, t2, dwide = (scratch.get(k, wide) for k in ("hll.fs", "hll.t2", "hll.diff"))
    maxp2, kin2, tmp2, c2 = (
        scratch.get(k, (2,) + fshape) for k in ("hll.maxp2", "hll.kin2", "hll.tmp2", "hll.c2")
    )
    s_left, s_right, slsr, safe = (
        scratch.get(k, fshape) for k in ("hll.sl", "hll.sr", "hll.slsr", "hll.safe")
    )
    mask = scratch.get("hll.mask", fshape, dtype=bool)
    umask = scratch.get("hll.umask", fshape, dtype=np.uint64)

    # _conserved_from_prim on both sides at once, reference expressions.
    rho2 = u2[:, Field.RHO]
    np.maximum(wlr[:, _PRIM_SLOT["rho"]], eos.rho_floor, out=rho2)
    v2x = wlr[:, _PRIM_SLOT["vx"]]
    v2y = wlr[:, _PRIM_SLOT["vy"]]
    v2z = wlr[:, _PRIM_SLOT["vz"]]
    # kinetic = (0.5 * rho) * ((vx**2 + vy**2) + vz**2), reference order.
    np.multiply(v2x, v2x, out=kin2)
    np.multiply(v2y, v2y, out=tmp2)
    kin2 += tmp2
    np.multiply(v2z, v2z, out=tmp2)
    kin2 += tmp2
    np.multiply(0.5, rho2, out=tmp2)
    np.multiply(tmp2, kin2, out=kin2)
    np.maximum(wlr[:, _PRIM_SLOT["p"]], 0.0, out=maxp2)
    np.multiply(rho2, v2x, out=u2[:, Field.SX])
    np.multiply(rho2, v2y, out=u2[:, Field.SY])
    np.multiply(rho2, v2z, out=u2[:, Field.SZ])
    # egas = kinetic + eint with eint = max(p, 0) / (gamma - 1).
    np.divide(maxp2, eos.gamma - 1.0, out=u2[:, Field.EGAS])
    u2[:, Field.EGAS] += kin2

    # _physical_flux on both sides: f = u * v, then the pressure fix-ups.
    vel_slot = _PRIM_SLOT[("vx", "vy", "vz")[axis]]
    v2 = wlr[:, vel_slot]
    np.multiply(u2, v2[:, None], out=f2[:, :npass])
    np.multiply(wlr[:, npass:], v2[:, None], out=f2[:, npass:])
    f2[:, Field.SX + axis] += maxp2
    np.multiply(maxp2, v2, out=tmp2)
    f2[:, Field.EGAS] += tmp2

    # sound_speed: sqrt((gamma * max(p, 0)) / max(rho, floor)) — the floored
    # rho is exactly the conserved stack's density row.
    np.multiply(eos.gamma, maxp2, out=c2)
    np.divide(c2, rho2, out=c2)
    np.sqrt(c2, out=c2)

    # s_left = min(vl - cl, vr - cr), s_right = max(vl + cl, vr + cr).
    np.subtract(v2, c2, out=kin2)
    np.minimum(kin2[0], kin2[1], out=s_left)
    np.add(v2, c2, out=kin2)
    np.maximum(kin2[0], kin2[1], out=s_right)

    # safe = where(|denom| > 1e-300, denom, 1.0) with denom = s_right - s_left,
    # as an in-place bit select against the constant 1.0 pattern.  In any
    # non-degenerate state s_right - s_left ~ 2c, so the select is skipped
    # unless some face actually collapses (same bits either way).
    np.subtract(s_right, s_left, out=safe)
    np.abs(safe, out=slsr)
    np.greater(slsr, 1e-300, out=mask)
    if not mask.all():
        np.multiply(mask, _U64_ONES, out=umask)
        safe_v = safe.view(np.uint64)
        safe_v ^= _U64_ONE_F
        safe_v &= umask
        safe_v ^= _U64_ONE_F

    # f_star = ((s_r * fl - s_l * fr) + (s_l * s_r) * (ur - ul)) / safe,
    # the two coefficient products written straight into fs and t2.
    fl, fr = f2[0], f2[1]
    np.multiply(s_left, s_right, out=slsr)
    np.subtract(u2[1], u2[0], out=dwide[:npass])
    np.subtract(wlr[1, npass:], wlr[0, npass:], out=dwide[npass:])
    np.multiply(s_right, fl, out=fs)
    np.multiply(s_left, fr, out=t2)
    fs -= t2
    np.multiply(slsr, dwide, out=t2)
    fs += t2
    fs /= safe

    # flux = where(s_l >= 0, fl, where(s_r <= 0, fr, f_star)): successive
    # bit selects into f_star pick the same element in every case (the
    # outer condition is applied last, so it wins on overlap, exactly like
    # the nested where).  Subsonic faces take f_star, so each select is
    # skipped outright when its condition holds nowhere — the usual case —
    # which drops six field-wide integer passes per solve with identical
    # output bits.
    fsv = fs.view(np.uint64)
    t2v = t2.view(np.uint64)
    np.less_equal(s_right, 0.0, out=mask)
    if mask.any():
        np.multiply(mask, _U64_ONES, out=umask)
        np.bitwise_xor(fr.view(np.uint64), fsv, out=t2v)
        t2v &= umask
        fsv ^= t2v
    np.greater_equal(s_left, 0.0, out=mask)
    if mask.any():
        np.multiply(mask, _U64_ONES, out=umask)
        np.bitwise_xor(fl.view(np.uint64), fsv, out=t2v)
        t2v &= umask
        fsv ^= t2v
    return fs


def stacked_primitives_kernel(
    u: np.ndarray, eos: IdealGasEOS, scratch: ScratchArena
) -> np.ndarray:
    """Primitives of one ``(B, NFIELDS, M, M, M)`` block, stacked per key.

    Returns a ``(len(PRIM_KEYS), B, M, M, M)`` scratch array holding the
    exact values of :func:`repro.hydro.primitives.primitives_from_conserved`
    (same elementwise expressions, evaluated into reused buffers), laid out
    so the whole reconstruction sweep runs as one wide kernel per axis.

    Two cost cuts with identical bits: the dual-energy fallback
    ``tau ** gamma`` (a ``pow`` over the whole block, by far the most
    expensive scalar op here) only runs when the energy-difference switch
    actually trips somewhere, and the passive rows (tau / f1 / f2, primitive
    == conserved) are **not** copied — the caller reads them straight from
    ``u``, so only rows ``:5`` of the result are meaningful.
    """
    ut = u.transpose(1, 0, 2, 3, 4)
    shape = ut.shape[1:]
    ws = scratch.get("prims", (len(PRIM_KEYS),) + shape)
    work = scratch.get("prims.work", (2,) + shape)
    mask = scratch.get("prims.mask", shape, dtype=bool)
    rho = ws[_PRIM_SLOT["rho"]]
    vx = ws[_PRIM_SLOT["vx"]]
    vy = ws[_PRIM_SLOT["vy"]]
    vz = ws[_PRIM_SLOT["vz"]]
    np.maximum(ut[Field.RHO], eos.rho_floor, out=rho)
    np.divide(ut[Field.SX], rho, out=vx)
    np.divide(ut[Field.SY], rho, out=vy)
    np.divide(ut[Field.SZ], rho, out=vz)
    # kinetic = (0.5 * rho) * ((vx**2 + vy**2) + vz**2), associated exactly
    # as the reference's ``0.5 * rho * (vx**2 + vy**2 + vz**2)``.
    kinetic = work[0]
    np.multiply(vx, vx, out=kinetic)
    tmp = work[1]
    np.multiply(vy, vy, out=tmp)
    kinetic += tmp
    np.multiply(vz, vz, out=tmp)
    kinetic += tmp
    np.multiply(0.5, rho, out=tmp)
    np.multiply(tmp, kinetic, out=kinetic)
    # dual_energy_eint: where(egas - kin < eta * egas, tau ** gamma branch,
    # max(egas - kin, floor)).  The base branch is computed everywhere (the
    # tau branch overwrites it where the switch trips, same value as the
    # reference's where), and the pow only runs if some cell actually trips.
    egas = ut[Field.EGAS]
    eint = ws[_PRIM_SLOT["p"]]
    np.subtract(egas, kinetic, out=eint)
    np.multiply(eos.dual_eta, egas, out=tmp)
    np.less(eint, tmp, out=mask)
    any_tau = mask.any()
    np.maximum(eint, eos.eint_floor, out=eint)
    if any_tau:
        np.maximum(ut[Field.TAU], 0.0, out=tmp)
        np.power(tmp, eos.gamma, out=tmp)
        umask = scratch.get("prims.umask", shape, dtype=np.uint64)
        np.multiply(mask, _U64_ONES, out=umask)
        ev = eint.view(np.uint64)
        tv = tmp.view(np.uint64)
        tv ^= ev
        tv &= umask
        ev ^= tv
    # pressure = (gamma - 1) * max(eint, floor); multiplication commutes
    # bitwise, so the in-place scale matches the reference expression.
    np.maximum(eint, eos.eint_floor, out=eint)
    eint *= eos.gamma - 1.0
    return ws


def stacked_rhs_kernel(
    u: np.ndarray,
    dx: float,
    eos: IdealGasEOS,
    dudt: np.ndarray,
    scratch: ScratchArena,
    faces: Optional[np.ndarray] = None,
    registry=None,
) -> None:
    """Flux divergence over one stacked ``(B, NFIELDS, M, M, M)`` block.

    Bit-identical to the reference ``dudt_subgrid`` per leaf: the
    same reconstruction, Riemann solve and per-axis accumulation order run
    over the stacked block (all elementwise, so batching cannot change
    rounding).  Two batched-only optimizations on top of stacking:

    * the reference reconstructs over the full transverse extent and crops
      the corner-garbage afterwards; fluxes are pointwise along each axis
      line, so trimming the transverse axes to the interior *before* the
      sweep drops ~2.25x of the work without changing a bit;
    * the eight primitive keys stack into one ``(8, B, ...)`` array, so
      each axis sweep is one wide reconstruction instead of eight.

    ``dudt`` is ``(B, NFIELDS, n, n, n)`` and is overwritten; ``faces``
    (when given) is the block's ``(B, 3, 2, NFIELDS, n, n)`` rows of the
    boundary-flux stack the refluxing step reads.
    """
    nb, n = dudt.shape[0], dudt.shape[2]
    g = (u.shape[2] - n) // 2
    with _timer(registry, "hydro.primitives"):
        ws = stacked_primitives_kernel(u, eos, scratch)
    # Passive primitive rows (tau / f1 / f2) equal their conserved fields,
    # and PRIM_KEYS[5:] lines up with Field.TAU..FRAC2 — read them straight
    # from u instead of staging copies through ws.
    upass = u.transpose(1, 0, 2, 3, 4)[Field.TAU : Field.FRAC2 + 1]
    dudt[...] = 0.0
    nk = len(PRIM_KEYS)
    interior = slice(g, g + n)
    # When dx is a power of two (every level of a power-of-two domain),
    # x / dx == x * (1 / dx) for every float x: scaling by an exact power
    # of two changes only the exponent, so division and
    # reciprocal-multiplication round identically.  The multiply is ~4x
    # cheaper than the divide on a full block.
    dx_pow2 = math.frexp(dx)[0] == 0.5
    rdx = 1.0 / dx
    # dudt seen as (NFIELDS, sweep, B, t1, t2) per axis, matching the
    # sweep-major flux layout below (dudt itself is (B, NFIELDS, n, n, n)).
    dudt_sweep = (
        dudt.transpose(1, 2, 0, 3, 4),
        dudt.transpose(1, 3, 0, 2, 4),
        dudt.transpose(1, 4, 0, 2, 3),
    )

    for axis in range(3):
        sweep = axis + 2  # the sweep spatial axis within (K, B, x, y, z)
        with _timer(registry, "hydro.reconstruct"):
            # Stencil trim along the sweep axis (cells [g-2, g+n+2) feed the
            # n + 1 interior faces) + transverse trim to the interior, copied
            # once into sweep-major contiguous layout (K, Mx, B, t1, t2) so
            # every reconstruction pass streams contiguous memory.
            index = [slice(None)] * 2 + [interior] * 3
            index[sweep] = slice(g - 2, g + n + 2)
            perm = (0, sweep, 1) + tuple(d for d in (2, 3, 4) if d != sweep)
            trim = tuple(index)
            wbuf = scratch.get("rhs.sweep", (nk, n + 4, nb, n, n))
            np.copyto(wbuf[:5], ws[:5][trim].transpose(perm))
            np.copyto(wbuf[5:], upass[trim].transpose(perm))
            wlr = _muscl_scratch(wbuf, 1, scratch)
            assert wlr.shape[2] == n + 1, "stencil accounting broke"

        with _timer(registry, "hydro.riemann"):
            flux = _hll_scratch(wlr, axis, eos, scratch)

        with _timer(registry, "hydro.divergence"):
            # flux is (NFIELDS, n + 1, B, n, n): divergence always slices the
            # face axis, and the strided write lands in the dudt view once.
            div = scratch.get("rhs.div", (NFIELDS, n, nb, n, n))
            np.subtract(flux[:, 1 : n + 1], flux[:, 0:n], out=div)
            if dx_pow2:
                div *= rdx
            else:
                div /= dx
            target = dudt_sweep[axis]
            target -= div

            # Boundary-flux extraction: the first / last face of this sweep.
            if faces is not None:
                faces[:, axis, 0] = flux[:, 0].transpose(1, 0, 2, 3)
                faces[:, axis, 1] = flux[:, n].transpose(1, 0, 2, 3)


def stacked_source_kernel(
    u_int: np.ndarray,
    dudt: np.ndarray,
    accel: Optional[np.ndarray] = None,
    omega: float = 0.0,
    x: Optional[np.ndarray] = None,
    y: Optional[np.ndarray] = None,
) -> None:
    """Gravity + rotating-frame sources over one block, in reference order.

    ``u_int`` and ``dudt`` are ``(B, NFIELDS, n, n, n)``; ``accel`` (when
    given) is ``(B, 3, n, n, n)``.  Matches the reference
    ``gravity_source`` then ``rotating_frame_source`` term for term.
    """
    ut = u_int.transpose(1, 0, 2, 3, 4)
    dt_t = dudt.transpose(1, 0, 2, 3, 4)
    rho = ut[Field.RHO]
    if accel is not None:
        g0, g1, g2 = accel[:, 0], accel[:, 1], accel[:, 2]
        dt_t[Field.SX] += rho * g0
        dt_t[Field.SY] += rho * g1
        dt_t[Field.SZ] += rho * g2
        dt_t[Field.EGAS] += (
            ut[Field.SX] * g0 + ut[Field.SY] * g1 + ut[Field.SZ] * g2
        )
    if omega != 0.0:
        sx, sy = ut[Field.SX], ut[Field.SY]
        cfx = omega**2 * x
        cfy = omega**2 * y
        dt_t[Field.SX] += 2.0 * omega * sy + rho * cfx
        dt_t[Field.SY] += -2.0 * omega * sx + rho * cfy
        dt_t[Field.EGAS] += sx * cfx + sy * cfy


def stacked_update_kernel(
    u_int: np.ndarray,
    u0: np.ndarray,
    dudt: np.ndarray,
    a0: float,
    a1: float,
    dt: float,
    eos: IdealGasEOS,
    scratch: ScratchArena,
) -> None:
    """RK3 convex combination + positivity floors over one block.

    ``u_new = a0 * u0 + a1 * (u + dt * dudt)`` evaluated in the reference's
    association, staged through ``scratch``.
    """
    acc = scratch.get("upd.acc", u0.shape)
    tmp = scratch.get("upd.tmp", u0.shape)
    np.multiply(dt, dudt, out=acc)
    np.add(u_int, acc, out=acc)
    np.multiply(a1, acc, out=acc)
    np.multiply(a0, u0, out=tmp)
    np.add(tmp, acc, out=acc)
    u_int[...] = acc
    ut = u_int.transpose(1, 0, 2, 3, 4)
    np.maximum(ut[Field.RHO], eos.rho_floor, out=ut[Field.RHO])
    np.maximum(ut[Field.TAU], 0.0, out=ut[Field.TAU])
    np.maximum(ut[Field.FRAC1], 0.0, out=ut[Field.FRAC1])
    np.maximum(ut[Field.FRAC2], 0.0, out=ut[Field.FRAC2])


def stacked_resync_tau_kernel(u_int: np.ndarray, eos: IdealGasEOS) -> None:
    """End-of-step tau resync where the energy difference is trustworthy."""
    ut = u_int.transpose(1, 0, 2, 3, 4)
    rho = np.maximum(ut[Field.RHO], eos.rho_floor)
    kinetic = 0.5 * (ut[Field.SX] ** 2 + ut[Field.SY] ** 2 + ut[Field.SZ] ** 2) / rho
    diff = ut[Field.EGAS] - kinetic
    healthy = diff > eos.dual_eta * ut[Field.EGAS]
    ut[Field.TAU] = np.where(
        healthy, eos.tau_from_eint(np.maximum(diff, eos.eint_floor)), ut[Field.TAU]
    )


def stacked_signal_kernel(
    u_int: np.ndarray, eos: IdealGasEOS, out: np.ndarray
) -> None:
    """Per-leaf peak CFL wave speed ``|vx|+|vy|+|vz|+3c`` over one block.

    Folded into the end of the batched step so ``global_timestep`` reads a
    cached per-leaf signal instead of re-walking the mesh.  Exact maxima,
    so the cached dt equals the recomputed one bit for bit.
    """
    w = primitives_from_conserved(u_int.transpose(1, 0, 2, 3, 4), eos)
    c = eos.sound_speed(w["rho"], w["p"])
    speed = np.abs(w["vx"]) + np.abs(w["vy"]) + np.abs(w["vz"]) + 3.0 * c
    np.max(speed, axis=(1, 2, 3), out=out)


# -- the rank step ------------------------------------------------------------

#: Cells per ``rhs`` sub-batch (8 leaves of 8^3): a run's stage runs in
#: batches of ``max(1, RHS_BLOCK_CELLS // n**3)`` leaves, so each ufunc
#: pass streams temporaries that fit a 2 MB L2 and the scratch set is sized
#: by the batch, not the run.  Measured on the fused sweep
#: (docs/hydro_plan.md, "Leaf blocking"): faster and smaller than 8 192,
#: and 2 048 loses to per-call dispatch overhead.
RHS_BLOCK_CELLS = 4096


class RankStep:
    """One rank's share of the stacked SSP-RK3 step.

    The kernel-level ops of :func:`repro.hydro.integrator.rk3_ops` —
    ``begin / rhs / reflux / update / finish`` — over the stacked arena
    blocks of ``plan.runs[rank]``.  Every interpreter of the step program
    drives this one object: the serial integrator inline over rank 0 of
    the one-rank plan, each process-backend worker and each DES locality
    over the runs it owns.  ``accel_view`` / ``flux_view`` are the
    whole-mesh slot-ordered acceleration and boundary-flux stacks — the
    caller's (the executor's shm arenas, the DES driver's shared stacks)
    or, by default, buffers in ``scratch`` (default: the plan's),
    allocated only when ``use_accel`` / ``collect_fluxes`` ask.
    """

    def __init__(
        self,
        plan: HydroPlan,
        rank: int,
        eos: IdealGasEOS,
        omega: float,
        registry,
        use_accel: bool = True,
        collect_fluxes: bool = True,
        accel_view: Optional[np.ndarray] = None,
        flux_view: Optional[np.ndarray] = None,
        scratch: Optional[ScratchArena] = None,
    ) -> None:
        n, ghost, total = plan.n, plan.ghost_width, plan.n_leaves
        if ghost < STENCIL_RADIUS:
            raise ValueError(
                f"ghost width {ghost} below stencil radius {STENCIL_RADIUS}"
            )
        if scratch is None:
            scratch = plan.scratch
        if accel_view is None and use_accel:
            accel_view = scratch.get(("accel",), (total, 3, n, n, n))
        if flux_view is None and collect_fluxes:
            flux_view = scratch.get(("flux",), (total, 3, 2, NFIELDS, n, n))
        self.runs = runs = plan.runs[rank]
        self.keys = keys = plan.leaf_keys
        self.n = n
        self.eos = eos
        self.omega = omega
        self.registry = registry
        self.scratch = scratch
        self.accel_view = accel_view
        self.flux_view = flux_view
        self.reflux_table = plan.reflux_table
        s = slice(ghost, ghost + n)
        # What the rhs reads: the interior plus a stencil-radius margin.
        w = slice(ghost - STENCIL_RADIUS, ghost + n + STENCIL_RADIUS)
        stacked = plan.arena.reshape(-1, NFIELDS, plan.m, plan.m, plan.m)
        self.u_int = [stacked[run.lo : run.hi, :, s, s, s] for run in runs]
        self.u0 = [scratch.get(("u0", i), ui.shape) for i, ui in enumerate(self.u_int)]
        #: Owned leaves of deferred batches for the reflux pass: key -> dudt.
        self.owned_rhs: Dict[NodeKey, np.ndarray] = {}
        #: Per run: its sub-batches ``(lo, hi, u, u_int, u0, dudt)`` — ``u``
        #: the stencil window of at most ``RHS_BLOCK_CELLS`` cells of
        #: consecutive leaves, ``u_int`` / ``u0`` its rows of the run's.
        #: ``dudt`` is ``None`` for a batch ``rhs`` updates itself (through
        #: the one batch-sized ``dudt`` buffer), and a deferred batch's own
        #: buffer, kept for the reflux op and ``update``.
        self.batches: List[list] = []
        for i, (run, cuts) in enumerate(zip(runs, plan.sub_batches(rank))):
            self.batches.append([])
            for lo, hi, deferred in cuts:
                dudt = scratch.get(("dudt", lo), (hi - lo, NFIELDS, n, n, n)) if deferred else None
                self.owned_rhs.update(zip(keys[lo:hi], dudt if deferred else ()))
                j, k = lo - run.lo, hi - run.lo
                self.batches[-1].append(
                    (lo, hi, stacked[lo:hi, :, w, w, w], self.u_int[i][j:k], self.u0[i][j:k], dudt)
                )

    # -- ops (one method per program op) --------------------------------------
    def begin(self) -> None:
        for u_int, u0 in zip(self.u_int, self.u0):
            np.copyto(u0, u_int)

    def rhs(
        self, collect_fluxes: bool, use_accel: bool, a0: float, a1: float, dt: float
    ) -> None:
        """One cache-sized sub-batch at a time: flux divergence, the
        sources (which read only the cell's own state), and — unless the
        batch is deferred for the reflux op — its RK3 update, while the
        batch's working set is still in cache."""
        sources = use_accel or self.omega != 0.0
        for run, batches in zip(self.runs, self.batches):
            for lo, hi, u, u_int, u0, dudt in batches:
                fused = dudt is None
                if fused:
                    dudt = self.scratch.get("dudt", u_int.shape)
                stacked_rhs_kernel(
                    u, run.dx, self.eos, dudt, self.scratch,
                    faces=self.flux_view[lo:hi] if collect_fluxes else None,
                    registry=self.registry,
                )
                if sources:
                    j, k = lo - run.lo, hi - run.lo
                    stacked_source_kernel(
                        u_int, dudt,
                        accel=self.accel_view[lo:hi] if use_accel else None,
                        omega=self.omega, x=run.x[j:k], y=run.y[j:k],
                    )
                if fused:
                    with self.registry.timer("hydro.update"):
                        stacked_update_kernel(u_int, u0, dudt, a0, a1, dt, self.eos, self.scratch)

    def reflux(self) -> int:
        """Flux corrections for owned leaves, reading all leaves' faces.

        Replays the plan-time mesh-free reflux table
        (:func:`repro.hydro.reflux.build_reflux_table`): rows for unowned
        leaves are skipped, so each coarse face is corrected exactly once
        — by its owner — while the whole-mesh flux stack supplies every
        child face.
        """
        with self.registry.timer("hydro.update"):
            return apply_flux_table(
                self.reflux_table, self.owned_rhs, self.flux_view, self.n
            )

    def update(self, a0: float, a1: float, dt: float) -> None:
        """The RK3 update of the deferred batches, after the reflux op."""
        with self.registry.timer("hydro.update"):
            for *_, u_int, u0, dudt in chain.from_iterable(self.batches):
                if dudt is not None:
                    stacked_update_kernel(u_int, u0, dudt, a0, a1, dt, self.eos, self.scratch)

    def finish(self) -> Dict[NodeKey, float]:
        """Tau resync + per-leaf CFL signals of the owned leaves."""
        signals: Dict[NodeKey, float] = {}
        with self.registry.timer("hydro.update"):
            for i, run in enumerate(self.runs):
                u_int = self.u_int[i]
                stacked_resync_tau_kernel(u_int, self.eos)
                out = self.scratch.get(("signal", i), (run.hi - run.lo,))
                stacked_signal_kernel(u_int, self.eos, out)
                for j, key in enumerate(self.keys[run.lo : run.hi]):
                    signals[key] = float(out[j])
        return signals


def op_effect_rows(plan: HydroPlan, op: tuple, who: Any) -> np.ndarray:
    """What one program op touches in the shared arenas, as
    ``(mode, segment, lo, hi, region)`` rows over leaf slots — the step
    program's happens-before contract, stated once.

    ``who`` is the rank running a rank op, or the ``(src, dst)`` pair of
    the :class:`~repro.comms.bundle.PairBundle` a ``ghost`` op applies
    (its donor-interior reads and ghost-band writes, traced from the live
    index arrays).  ``accel`` writes and ``reflux`` reads the whole
    slot-ordered stack, whoever runs them.  ``rhs`` writes the interiors
    of the sub-batches it updates, ``update`` those of the deferred ones
    (:meth:`HydroPlan.sub_batches`).  The static op-program proof, the
    shm handshake, the DES driver's cross-rank waits and all three race
    checks read these rows.
    """
    kind = op[0]
    if kind == "ghost":
        b = plan.ghosts.bundles[who]
        shape = (plan.n, plan.ghost_width, NFIELDS)
        return np.vstack([
            field_access_rows([b.copy_src, b.fine_src], MODE_READ, *shape),
            field_access_rows([b.copy_dst, b.fine_dst], MODE_WRITE, *shape),
        ])
    if kind == "accel":
        return slot_range_rows(0, plan.n_leaves, MODE_WRITE, SEG_ACCEL)
    if kind == "reflux":
        return slot_range_rows(0, plan.n_leaves, MODE_READ, SEG_FLUX)

    def rows(ranges, mode: int, segment: int, region: int = REGION_ALL) -> np.ndarray:
        return np.array(
            [[mode, segment, lo, hi, region] for lo, hi, *_ in ranges],
            dtype=np.int64,
        ).reshape(-1, 5)

    runs = plan.runs[who]
    if kind == "begin":
        return rows(runs, MODE_READ, SEG_FIELDS, REGION_INTERIOR)
    if kind == "finish":
        return rows(runs, MODE_WRITE, SEG_FIELDS, REGION_INTERIOR)
    if kind in ("rhs", "update"):
        # The rhs updates the batches it fuses, ``update`` the deferred ones.
        batches = chain.from_iterable(plan.sub_batches(who))
        parts = [rows(
            [b for b in batches if b[2] == (kind == "update")],
            MODE_WRITE, SEG_FIELDS, REGION_INTERIOR,
        )]
        if kind == "rhs":
            collect_fluxes, use_accel = op[1:3]
            parts.append(rows(runs, MODE_READ, SEG_FIELDS))
            if collect_fluxes:
                parts.append(rows(runs, MODE_WRITE, SEG_FLUX))
            if use_accel:
                parts.append(rows(runs, MODE_READ, SEG_ACCEL))
        return np.vstack(parts)
    raise ValueError(f"unknown program op {kind!r}")
