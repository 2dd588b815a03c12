"""Per-locality-pair ghost bundles: coalesced flat-buffer messages.

The un-coalesced distributed step sends one message per remote ghost face
per RK stage — O(leaf faces) messages, each paying the per-message action
overhead (and, under the reliable transport, its own seq/ack/timer).  This
module groups every ghost-band transfer by its ordered
``(source_locality, dest_locality)`` pair into one :class:`PairBundle`
backed by a single flat numpy payload buffer, so one step phase sends
O(neighbor localities) messages instead.

This is the **one** ghost-exchange index format: on a single locality the
whole-mesh exchange is the lone ``(0, 0)`` bundle and its
:meth:`PairBundle.apply` *is* the serial ghost fill — the paper's
same-locality exchange as the local case of the one channel exchange
(§VII-B: same pack/unpack, the message skipped).

The pack/unpack index arrays are *traced* from the reference fill
functions of :mod:`repro.octree.ghost` (``trace_face``):

* ``same`` / ``coarse`` / ``boundary`` fills are pure gathers — tracing a
  fill over cubes of flat-arena indices leaves the ghost band holding the
  arena index of its source cell;
* a ``fine`` fill is the fixed eight-term restriction average of
  :data:`~repro.octree.ghost._RESTRICT_OFFSETS`.  Every output cell's
  eight source cells belong to exactly *one* face child, so a fine face
  whose children straddle localities splits cleanly: each child's output
  cells ride the bundle of that child's locality.  The **sender** performs
  the restriction (accumulate the eight gather rows in stencil order, then
  multiply by 0.125 — the exact arithmetic of
  :func:`repro.octree.ghost._restrict2`), so the wire carries the
  restricted band, an 8x payload reduction, and the unpack side is a pure
  scatter.

Both sides are bit-identical to the per-face reference fills (the
sequential ``fill_all_ghosts`` of ``tests/oracles/ghost.py`` is the oracle
the tests compare against).  A bundle plan is part of the hydro plan
(:func:`repro.hydro.plan.build_hydro_plan` is its only builder in ``src/``)
and shares its lifecycle (``docs/plan_lifecycle.md``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.octree.fields import NFIELDS
from repro.octree.ghost import FaceTraceCache, trace_face
from repro.octree.mesh import AmrMesh
from repro.octree.node import NodeKey

#: Ordered (source_locality, dest_locality).
PairKey = Tuple[int, int]


def adopt_arena(
    mesh: AmrMesh, nfields: int = NFIELDS, out: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, Dict[NodeKey, int]]:
    """Move every leaf sub-grid into one flat storage arena.

    Returns ``(arena, offsets)`` where ``offsets[key]`` is the flat offset
    of that leaf's ``(nfields, M, M, M)`` chunk; each leaf's
    ``subgrid.data`` is rebound to a view of the arena (values preserved),
    so all existing kernels keep working while pack/unpack can fancy-index
    the whole mesh at once.  The canonical layout: leaves sorted by key,
    one chunk per slot.

    ``out`` supplies the storage instead of a fresh allocation — the
    process backend hands its shared-memory view down here, which is what
    lets forked workers see the adopted mesh without any copies.
    """
    leaves = sorted(mesh.leaves(), key=lambda nd: nd.key)
    m = mesh.n + 2 * mesh.ghost
    chunk = nfields * m**3
    if out is not None:
        if out.dtype != np.float64 or out.size != len(leaves) * chunk:
            raise ValueError(
                f"out buffer must be float64 with {len(leaves) * chunk} "
                f"elements, got {out.dtype} with {out.size}"
            )
        arena = out.reshape(-1)
    else:
        arena = np.empty(len(leaves) * chunk)
    offsets: Dict[NodeKey, int] = {}
    for slot, leaf in enumerate(leaves):
        base = slot * chunk
        offsets[leaf.key] = base
        view = arena[base : base + chunk].reshape(nfields, m, m, m)
        np.copyto(view, leaf.subgrid.data)
        leaf.subgrid.data = view
    return arena, offsets


def neighbor_locality_pairs(mesh: AmrMesh) -> List[PairKey]:
    """The closed form the coalesced message count is tested against.

    Every ordered ``(donor_locality, dest_locality)`` pair, donor != dest,
    with at least one ghost-band transfer crossing it — fine faces
    contribute one donor locality per face child.  A coalesced step phase
    sends exactly one payload message per pair.
    """
    pairs = set()
    for leaf in mesh.leaves():
        for axis in range(3):
            for side in (0, 1):
                kind, other = mesh.face_neighbor(leaf, axis, side)
                if kind == "boundary":
                    continue
                donors = [other] if kind in ("same", "coarse") else list(other)
                for donor in donors:
                    if donor.locality != leaf.locality:
                        pairs.add((donor.locality, leaf.locality))
    return sorted(pairs)


@dataclass
class PairBundle:
    """Every ghost transfer from one locality to another, as one message.

    ``copy_src/copy_dst`` cover the pure-gather classes (same, coarse,
    boundary); ``fine_src`` holds the eight restriction gather rows whose
    stencil-ordered average lands on ``fine_dst``.  ``pack`` gathers (and
    restricts) into the preallocated payload buffer on the source side;
    ``unpack`` scatters it into the destination ghost bands.
    """

    src_locality: int
    dst_locality: int
    copy_src: np.ndarray  # (C,) flat-arena gather indices
    copy_dst: np.ndarray  # (C,) flat-arena scatter indices
    fine_src: np.ndarray  # (8, K) restriction gather rows
    fine_dst: np.ndarray  # (K,) flat-arena scatter indices
    #: Member face transfers (a fine face counts once per contributing
    #: child) — the unit the DES driver prices pack/unpack work in.
    n_faces: int

    def __post_init__(self) -> None:
        # Scratch (not fields): the payload buffer, its fine-restriction
        # tail and the restriction accumulator.
        self.payload = np.empty(self.copy_src.size + self.fine_dst.size)
        self._fine_acc = self.payload[self.copy_src.size :]
        self._fine_tmp = np.empty(self.fine_dst.size)

    def __getstate__(self) -> dict:
        # The scratch buffers must not cross a pickle boundary: _fine_acc
        # is a *view* of payload, and a round-trip silently flattens it to
        # an independent array — pack() would then write the restricted
        # fine data nowhere and unpack() scatter uninitialized memory.
        # (Every worker receives its bundles pickled, in its plan slice.)
        state = self.__dict__.copy()
        for scratch in ("payload", "_fine_acc", "_fine_tmp"):
            state.pop(scratch, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def local(self) -> bool:
        return self.src_locality == self.dst_locality

    @property
    def nbytes(self) -> int:
        """Wire size: one float64 per packed ghost cell (all fields)."""
        return self.payload.size * 8

    @property
    def buffer_nbytes(self) -> int:
        """Bytes of the pack buffers: the payload and the restriction tail."""
        return self.payload.nbytes + self._fine_tmp.nbytes

    def pack(self, arena: np.ndarray) -> np.ndarray:
        """Gather (and sender-side restrict) into the payload buffer."""
        c = self.copy_src.size
        np.take(arena, self.copy_src, out=self.payload[:c])
        if self.fine_dst.size:
            np.take(arena, self.fine_src[0], out=self._fine_acc)
            for row in range(1, 8):
                np.take(arena, self.fine_src[row], out=self._fine_tmp)
                np.add(self._fine_acc, self._fine_tmp, out=self._fine_acc)
            np.multiply(0.125, self._fine_acc, out=self._fine_acc)
        return self.payload

    def unpack(self, arena: np.ndarray) -> None:
        """Scatter the payload into the destination ghost bands."""
        c = self.copy_dst.size
        arena[self.copy_dst] = self.payload[:c]
        if self.fine_dst.size:
            arena[self.fine_dst] = self.payload[c:]

    def apply(self, arena: np.ndarray) -> None:
        """Local (same-locality) path: pack + unpack in one step — the
        promise-guarded direct read, but batched over every local face."""
        self.pack(arena)
        self.unpack(arena)


#: Ghost face classes, in the order ``face_counts`` is serialised.
FACE_KINDS = ("same", "coarse", "boundary", "fine")
#: The index arrays of a :class:`PairBundle`.
INDEX_FIELDS = ("copy_src", "copy_dst", "fine_src", "fine_dst")


def _cat(arrays: List[np.ndarray], axis: int = 0) -> np.ndarray:
    """Concatenate index arrays (``axis=1``: ``(8, K_i)`` restriction row
    blocks along ``K``); an empty list gives the matching empty array."""
    if not arrays:
        return np.empty((8, 0) if axis else 0, dtype=np.intp)
    return np.concatenate(arrays, axis=axis).astype(np.intp, copy=False)


@dataclass
class GhostBundlePlan:
    """All pair bundles of one mesh topology under one rank assignment —
    the only ghost-exchange index format."""

    bundles: Dict[PairKey, PairBundle]
    #: Faces per exchange class (:data:`FACE_KINDS`); ``face_counts["fine"]``
    #: tells the step whether any coarse-fine interface exists at all.
    face_counts: Dict[str, int]
    #: Content hash of the topology this plan was traced for (see
    #: :meth:`repro.octree.mesh.AmrMesh.fingerprint`).
    fingerprint: str = ""

    @property
    def remote_pairs(self) -> List[PairKey]:
        return sorted(k for k in self.bundles if k[0] != k[1])

    @property
    def remote_payload_bytes(self) -> int:
        return sum(self.bundles[k].nbytes for k in self.remote_pairs)

    def to_payload(self) -> Dict[str, np.ndarray]:
        """Flat array payload for the persistent plan cache
        (:mod:`repro.core.plancache`), keyed there on ``(fingerprint, n,
        ghost, nranks)``: the pair list plus each bundle's index arrays
        under ``<field>.<i>``.  The arrays are absolute indices into the
        canonical sorted-leaf arena layout, itself a pure function of
        topology — so the payload reconstructs this plan bit for bit."""
        pairs = sorted(self.bundles)
        out = {
            "pairs": np.array(pairs, dtype=np.int64).reshape(-1, 2),
            "n_faces": np.array(
                [self.bundles[pair].n_faces for pair in pairs], dtype=np.int64
            ),
            "face_counts": np.array(
                [self.face_counts[k] for k in FACE_KINDS], dtype=np.int64
            ),
        }
        for i, pair in enumerate(pairs):
            for name in INDEX_FIELDS:
                out[f"{name}.{i}"] = getattr(self.bundles[pair], name)
        return out

    @classmethod
    def from_payload(
        cls, payload: Dict[str, np.ndarray], fingerprint: str
    ) -> "GhostBundlePlan":
        bundles: Dict[PairKey, PairBundle] = {}
        for i, (src, dst) in enumerate(np.asarray(payload["pairs"]).tolist()):
            bundles[(src, dst)] = PairBundle(
                src, dst, n_faces=int(payload["n_faces"][i]),
                **{
                    name: np.asarray(payload[f"{name}.{i}"]).astype(
                        np.intp, copy=False
                    )
                    for name in INDEX_FIELDS
                },
            )
        counts = np.asarray(payload["face_counts"]).tolist()
        return cls(bundles, dict(zip(FACE_KINDS, counts)), fingerprint)


class _PairAccumulator:
    """Per-pair lists collected during the face walk."""

    def __init__(self) -> None:
        self.copy_src: List[np.ndarray] = []
        self.copy_dst: List[np.ndarray] = []
        self.fine_src: List[np.ndarray] = []
        self.fine_dst: List[np.ndarray] = []
        self.n_faces = 0


def build_bundle_plan(
    mesh: AmrMesh,
    offsets: Dict[NodeKey, int],
    locality: Dict[NodeKey, int],
    nfields: int = NFIELDS,
    trace_cache: Optional[FaceTraceCache] = None,
) -> GhostBundlePlan:
    """Trace the reference fills into per-locality-pair bundles.

    ``offsets`` maps each leaf key to its flat-arena chunk offset (see
    :func:`adopt_arena`); ``locality`` maps each leaf key to its rank —
    an explicit input, not a read of ``leaf.locality`` (all on one rank:
    the one-bundle serial plan).  Every face's fill is traced in
    leaf-local indices (:func:`~repro.octree.ghost.trace_face`), relocated
    into the arena layout and grouped by
    ``(donor_locality, dest_locality)``; passing a
    :class:`~repro.octree.ghost.FaceTraceCache` reuses the traces of faces
    a regrid did not touch, which is the bulk of an incremental rebuild.
    The walk is over **sorted** leaf keys, so the plan arrays are a pure
    function of topology and assignment (not of mesh construction order).
    """
    leaves = sorted(mesh.leaves(), key=lambda nd: nd.key)
    acc: Dict[PairKey, _PairAccumulator] = defaultdict(_PairAccumulator)
    face_counts = dict.fromkeys(FACE_KINDS, 0)
    for leaf in leaves:
        dest_base = offsets[leaf.key]
        dest_loc = locality[leaf.key]
        for axis in range(3):
            for side in (0, 1):
                if trace_cache is not None:
                    trace = trace_cache.face(mesh, leaf, axis, side)
                else:
                    trace = trace_face(mesh, leaf, axis, side, nfields)
                face_counts[trace.kind] += 1
                if trace.kind == "fine":
                    for child_key, rows, dst in trace.fine_parts:
                        entry = acc[locality[child_key], dest_loc]
                        entry.fine_src.append(np.add(rows, offsets[child_key], dtype=np.intp))
                        entry.fine_dst.append(np.add(dst, dest_base, dtype=np.intp))
                        entry.n_faces += 1
                    continue
                donor_key = trace.participants[-1]
                entry = acc[locality[donor_key], dest_loc]
                entry.copy_src.append(np.add(trace.copy_src, offsets[donor_key], dtype=np.intp))
                entry.copy_dst.append(np.add(trace.copy_dst, dest_base, dtype=np.intp))
                entry.n_faces += 1

    bundles: Dict[PairKey, PairBundle] = {}
    for pair in sorted(acc):
        entry = acc[pair]
        bundles[pair] = PairBundle(
            src_locality=pair[0],
            dst_locality=pair[1],
            copy_src=_cat(entry.copy_src),
            copy_dst=_cat(entry.copy_dst),
            fine_src=_cat(entry.fine_src, axis=1),
            fine_dst=_cat(entry.fine_dst),
            n_faces=entry.n_faces,
        )
    return GhostBundlePlan(
        bundles=bundles, face_counts=face_counts, fingerprint=mesh.fingerprint()
    )
