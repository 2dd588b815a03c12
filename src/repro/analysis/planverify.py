"""Static plan verification: prove the parallel plans race-free pre-launch.

The SIMD-merging companion work leans on one enabling invariant — per-task
index sets are disjoint — and the process backend inherits it everywhere:
ranks write only their own slot runs, ghost scatters write only their own
ghost bands, every ghost cell has exactly one donor, FMM row blocks own
disjoint segment ranges.  All of those sets exist as concrete index arrays
inside the plans (:class:`~repro.comms.bundle.GhostBundlePlan` scatter
arrays, the hydro plan's per-rank slot runs, the FMM plan's
``near_blocks`` / ``FarLevel.blocks`` segment ranges), so instead of
*trusting* the planners we can check the invariant in closed form before
a single worker forks:

* :func:`verify_partition` — rank slot runs are in-bounds, pairwise
  disjoint, cover every slot, and agree with the leaf localities;
* :func:`verify_bundle_plan` — scatter targets are globally unique and
  exactly cover every face ghost band (each target has exactly one
  donor), writes land only in ghost bands of leaves owned by the
  applying rank, reads come only from donor interiors of the declared
  source rank;
* :func:`verify_fmm_blocks` — the plan-time M2L row blocks tile every
  row list's segments contiguously and in order (no overlap, gap or
  reordering) over consistent CSR bounds, and (:func:`verify_fmm_gathers`)
  every P2P class's shared gather matrix indexes inside its offset table;
* :func:`verify_op_program` — the step program is race-free on the
  plan: each op's declared effect rows
  (:func:`~repro.hydro.plan.op_effect_rows`), replayed round by round
  with the shm race detector's own conflict predicate;
* :func:`verify_process_plan` — partition, bundles and op program over
  one :class:`~repro.hydro.plan.HydroPlan`: the plan that runs, not a
  reconstruction of it.

Checks are pure ``numpy`` set algebra over the live index arrays (the
ones the workers will actually use — an injected overlap *is* the checked
array), cost one plan-build's worth of work, run once per topology, and
return :class:`PlanViolation` records; callers in raise mode get a
:class:`PlanVerificationError` naming every violated invariant.

``ProcessHydroExecutor`` and ``FmmSolver`` run these on every plan
(re)build and refuse unverified plans unless constructed with
``verify_plans=False`` (CLI: ``--no-verify-plans``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from repro.analysis.effects import REGION_INTERIOR, index_chunks, slot_regions
from repro.analysis.shmrace import concurrent_conflicts, handshake_positions
from repro.octree.fields import NFIELDS
from repro.octree.mesh import AmrMesh

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.comms.bundle import GhostBundlePlan
    from repro.gravity.plan import FmmPlan
    from repro.hydro.plan import HydroPlan


@dataclass(frozen=True)
class PlanViolation:
    """One violated plan invariant."""

    check: str  # stable identifier, e.g. "bundle-dst-overlap"
    detail: str

    def __str__(self) -> str:
        return f"{self.check}: {self.detail}"


class PlanVerificationError(RuntimeError):
    """A plan failed static verification; carries every violation."""

    def __init__(self, violations: Sequence[PlanViolation]) -> None:
        self.violations = tuple(violations)
        lines = "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(
            f"plan failed static verification "
            f"({len(self.violations)} violation(s)):\n{lines}"
        )


def verify_partition(
    runs: Sequence[Sequence[tuple]],
    n_slots: int,
    localities: Sequence[int],
) -> List[PlanViolation]:
    """Per-rank slot runs partition ``[0, n_slots)`` and match localities.

    ``runs[rank]`` holds ``(lo, hi, ...)`` ranges
    (:class:`~repro.hydro.plan.SlotRun`); every slot must appear
    in exactly one rank's runs (the per-rank interior/flux/accel write
    sets are these ranges, so disjoint cover == race-free writes), and
    each covered slot's leaf locality must equal the covering rank.
    """
    out: List[PlanViolation] = []
    owner = np.full(n_slots, -1, dtype=np.int64)
    for rank, rank_runs in enumerate(runs):
        for lo, hi, *_rest in rank_runs:
            if not (0 <= lo < hi <= n_slots):
                out.append(PlanViolation(
                    "partition-bounds",
                    f"rank {rank} run [{lo}, {hi}) outside [0, {n_slots})",
                ))
                continue
            taken = owner[lo:hi]
            clash = np.nonzero(taken >= 0)[0]
            if clash.size:
                s = lo + int(clash[0])
                out.append(PlanViolation(
                    "partition-overlap",
                    f"slot {s} claimed by both rank {int(taken[clash[0]])} "
                    f"and rank {rank}",
                ))
            owner[lo:hi] = rank
    holes = np.nonzero(owner < 0)[0]
    if holes.size:
        out.append(PlanViolation(
            "partition-hole",
            f"{holes.size} slot(s) owned by no rank (first: {int(holes[0])})",
        ))
    loc = np.asarray(localities, dtype=np.int64)
    if loc.size == n_slots:
        covered = owner >= 0
        wrong = np.nonzero(covered & (owner != loc))[0]
        if wrong.size:
            s = int(wrong[0])
            out.append(PlanViolation(
                "partition-locality",
                f"slot {s} is leaf locality {int(loc[s])} but assigned to "
                f"rank {int(owner[s])}",
            ))
    return out


def verify_bundle_plan(
    mesh: AmrMesh,
    plan: "GhostBundlePlan",
    localities: Sequence[int],
    nfields: int = NFIELDS,
) -> List[PlanViolation]:
    """Ghost-exchange scatter/gather index arrays are race-free.

    ``localities`` is the owning rank of every arena slot (sorted-leaf
    order) — the assignment the plan was built for.  Checked in closed
    form over the live arrays:

    * every scatter target (``copy_dst``/``fine_dst``) is written by
      exactly one donor — globally unique *and* exactly equal to the set
      of face ghost-band cells the reference exchange fills;
    * writes land only in ghost regions of leaves whose locality is the
      bundle's ``dst_locality`` (the rank that applies it);
    * reads (``copy_src``/``fine_src``) come only from interiors, owned
      by the bundle's ``src_locality``;
    * all indices are in-bounds for the arena.

    Memory stays bounded by the arena, not the plan: bounds, region and
    ownership are checked one :func:`~repro.analysis.effects.index_chunks`
    piece at a time, uniqueness and coverage against a one-byte-per-element
    map of the arena.
    """
    out: List[PlanViolation] = []
    n, g = mesh.n, mesh.ghost
    m = n + 2 * g
    loc = np.asarray(localities, dtype=np.int64)
    # The face ghost bands of one leaf chunk: what the reference fills.
    sg = next(iter(mesh.leaves())).subgrid
    band = np.zeros((nfields, m, m, m), dtype=bool)
    for axis in range(3):
        for side in (0, 1):
            band[(slice(None),) + sg.ghost_slices(axis, side)] = True
    band = band.reshape(-1)
    total = loc.size * band.size
    written = np.zeros(total, dtype=bool)
    tally = {"targets": 0, "dups": 0, "first": total}

    def scan(arrays, owner: int, interior: bool, mark: bool):
        """(any out of bounds, in-bounds count off ``interior``, sorted
        slots not owned by ``owner``); ``mark`` records scatter targets."""
        oob, misplaced, foreign = False, 0, [np.empty(0, dtype=np.int64)]
        for idx in index_chunks(arrays):
            inside = (idx >= 0) & (idx < total)
            if not inside.all():
                oob, idx = True, idx[inside]
            slot, region = slot_regions(idx, n, g, nfields)
            misplaced += int(np.count_nonzero((region == REGION_INTERIOR) != interior))
            foreign.append(np.unique(slot[loc[slot] != owner]))
            if mark:
                u, counts = np.unique(idx, return_counts=True)
                again = written[u]
                tally["targets"] += idx.size
                tally["dups"] += idx.size - u.size + int(np.count_nonzero(again))
                tally["first"] = min([tally["first"]] + u[again | (counts > 1)][:1].tolist())
                written[u] = True
        return oob, misplaced, np.unique(np.concatenate(foreign))

    for pair in sorted(plan.bundles):
        b = plan.bundles[pair]
        dst = scan((b.copy_dst, b.fine_dst), b.dst_locality, False, True)
        src = scan((b.copy_src, b.fine_src), b.src_locality, True, False)
        for name, (oob, _, _) in (("dst", dst), ("src", src)):
            if oob:
                out.append(PlanViolation(
                    "bundle-bounds",
                    f"bundle {pair} {name} index outside [0, {total})",
                ))
        if dst[1]:
            out.append(PlanViolation(
                "bundle-dst-interior",
                f"bundle {pair} scatters {dst[1]} "
                f"element(s) into leaf interiors (ghost bands only)",
            ))
        if dst[2].size:
            out.append(PlanViolation(
                "bundle-dst-ownership",
                f"bundle {pair} writes slot(s) {dst[2].tolist()[:4]} "
                f"owned by rank(s) "
                f"{np.unique(loc[dst[2]]).tolist()[:4]}, "
                f"not dst rank {b.dst_locality}",
            ))
        if src[1]:
            out.append(PlanViolation(
                "bundle-src-ghost",
                f"bundle {pair} reads {src[1]} "
                f"element(s) outside donor interiors",
            ))
        if src[2].size:
            out.append(PlanViolation(
                "bundle-src-ownership",
                f"bundle {pair} reads slot(s) {src[2].tolist()[:4]} not "
                f"owned by src rank {b.src_locality}",
            ))
        if b.fine_dst.size and b.fine_src.shape != (8, b.fine_dst.size):
            out.append(PlanViolation(
                "bundle-fine-shape",
                f"bundle {pair} fine_src {b.fine_src.shape} does not match "
                f"fine_dst ({b.fine_dst.size},)",
            ))

    if tally["dups"]:
        first = tally["first"]
        out.append(PlanViolation(
            "bundle-dst-overlap",
            f"{tally['dups']} scatter target(s) written by more than "
            f"one donor (first: element {first} in slot {first // band.size})",
        ))
    covered = written.reshape(loc.size, band.size)
    missing = int(np.count_nonzero(band > covered))
    extra = int(np.count_nonzero(covered > band))
    if missing or extra or tally["targets"] != loc.size * int(band.sum()):
        out.append(PlanViolation(
            "bundle-dst-coverage",
            f"scatter targets != face ghost bands: {missing} band cell(s) "
            f"with no donor, {extra} target(s) outside any band",
        ))
    return out


def verify_fmm_blocks(plan: "FmmPlan") -> List[PlanViolation]:
    """Every M2L row list's plan-time blocks tile its segments in order.

    Bit-identical blocked execution needs each ``(target, octant)``
    segment in exactly one block with its complete source rows.  Checked
    per list (the near list and every far level): CSR bounds are
    consistent, and the ``[s0, s1)`` block ranges are non-empty and cover
    ``[0, n_segments)`` contiguously and in order — no overlap, gap or
    reordering.  Includes :func:`verify_fmm_gathers`.
    """
    out = verify_fmm_gathers(plan)
    lists = [("near", plan.near_indptr, plan.near_rows.size,
              plan.near_center_rows.size, plan.near_blocks)]
    lists += [(f"far level batch {i}", fl.indptr, fl.src_idx.size,
               fl.tgt_idx.size, fl.blocks) for i, fl in enumerate(plan.far_levels)]
    for name, indptr, n_rows, n_seg, blocks in lists:
        if (indptr.size != n_seg + 1 or indptr[0] != 0 or indptr[-1] != n_rows
                or np.any(np.diff(indptr) < 0)):
            out.append(PlanViolation(
                "fmm-block-csr",
                f"{name}: indptr ({indptr.size} entries) inconsistent with "
                f"{n_seg} segment(s) / {n_rows} row(s)",
            ))
        blocks = np.asarray(blocks, dtype=np.intp).reshape(-1, 2)
        edges = np.concatenate([[0], blocks[:, 1]])
        if (not np.array_equal(blocks[:, 0], edges[:-1]) or edges[-1] != n_seg
                or np.any(blocks[:, 1] <= blocks[:, 0])):
            out.append(PlanViolation(
                "fmm-block-tiling",
                f"{name}: blocks {blocks.tolist()[:4]}... do not tile "
                f"[0, {n_seg}) contiguously and in order",
            ))
    return out


def verify_fmm_gathers(plan: "FmmPlan") -> List[PlanViolation]:
    """Every P2P class's gather matrix indexes inside its offset table.

    ``P2PClass.templates`` gathers with ``mode="clip"`` (no bounds check),
    so an out-of-range index would silently read the wrong distance.
    Proved per class: the table has one entry per offset of its three
    ``rel`` patterns, ``0 <= gather.min()`` and ``gather.max() < tab.size``
    (extrema taken once per shared matrix), and classes sharing a gather
    matrix share its ``rel`` patterns.
    """
    out: List[PlanViolation] = []
    seen: dict = {}  # id(gather) -> (min, max, rel of the first class using it)
    for cls in plan.p2p_classes:
        if id(cls.gather) not in seen:
            seen[id(cls.gather)] = (cls.gather.min(), cls.gather.max(), cls.rel)
        lo, hi, rel = seen[id(cls.gather)]
        for check, ok, detail in (
            ("fmm-gather-table", cls.tab.shape == tuple(cls.rel.max(axis=(1, 2)) + 1),
             f"table shape {cls.tab.shape} is not the extent of its rel patterns"),
            ("fmm-gather-bounds", 0 <= lo and hi < cls.tab.size,
             f"gather indices [{lo}, {hi}] outside its table of {cls.tab.size}"),
            ("fmm-gather-pattern", np.array_equal(cls.rel, rel),
             "shares a gather matrix built for other rel patterns"),
        ):
            if not ok:
                out.append(PlanViolation(check, f"class {cls.key}: {detail}"))
    return out


def verify_op_program(plan: "HydroPlan") -> List[PlanViolation]:
    """The step program is race-free on ``plan``.

    Builds, per rank, the event log a process-backend step would write —
    every round of :func:`~repro.hydro.integrator.rk3_ops` one epoch,
    each op's :func:`~repro.hydro.plan.op_effect_rows` stamped with the
    handshake position they give — and checks every rank pair with the shm
    detector's own predicate (:func:`~repro.analysis.shmrace.concurrent_conflicts`):
    within a round, one rank's writes must be disjoint from the other
    ranks' reads and writes unless the ``ghosts`` → ``go`` handshake
    orders them.  The fused grouping is the one proved: its rounds hold
    every cross-rank pair a one-op round holds, at positions the
    handshake does not order.  ``accel`` is the parent's, between rounds.
    """
    from repro.hydro.integrator import rk3_ops

    collect_fluxes = plan.ghosts.face_counts["fine"] > 0
    logs: List[List[np.ndarray]] = [[] for _ in range(plan.nranks)]
    rounds = [
        op[1] if op[0] == "fused" else (op,)
        for op in rk3_ops(0.0, collect_fluxes, True, overlap=True)
        if op[0] != "accel"
    ]
    for epoch, group in enumerate(rounds):
        positions = handshake_positions([plan.effect_rows(op) for op in group])
        for op, position in zip(group, positions):
            for rank in range(plan.nranks):
                units = [rank] if op[0] != "ghost" else sorted(
                    p for p in plan.ghosts.bundles if p[1] == rank
                )
                for unit in units:
                    r = plan.effect_rows(op, unit)
                    logs[rank].append(np.column_stack([
                        np.full(len(r), epoch), r, np.full(len(r), position),
                    ]))
    events = [np.vstack(log) for log in logs]
    seen: set = set()
    return [
        PlanViolation("op-program-race", str(finding))
        for a in range(plan.nranks)
        for b in range(a + 1, plan.nranks)
        for finding in concurrent_conflicts(a, events[a], b, events[b], seen)
    ]


def verify_process_plan(plan: "HydroPlan") -> List[PlanViolation]:
    """Whole-plan pass over a built :class:`~repro.hydro.plan.HydroPlan`:
    rank partition, ghost bundles and the op program."""
    out = verify_partition(plan.runs, plan.n_leaves, plan.rank_of)
    out.extend(verify_bundle_plan(plan.mesh_ref(), plan.ghosts, plan.rank_of))
    out.extend(verify_op_program(plan))
    return out


def verify_mesh_plans(mesh: AmrMesh, nprocs: int) -> List[PlanViolation]:
    """Scenario-level pass without forking anything (the ``repro
    verify-plans`` gate): build the plan the executor would serve for
    ``nprocs`` ranks — same builder, private memory instead of shm — and
    verify it."""
    from repro.hydro.plan import build_hydro_plan

    return verify_process_plan(build_hydro_plan(mesh, nranks=nprocs))


def require_verified(violations: Sequence[PlanViolation]) -> None:
    """Raise :class:`PlanVerificationError` when any violation exists."""
    if violations:
        raise PlanVerificationError(violations)
