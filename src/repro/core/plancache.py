"""Persistent content-addressed plan cache.

Cold plan construction is the dominant fixed cost of a run: the FMM dual
tree traversal and the hydro ghost/bundle index plans are pure functions of
the octree topology, yet every process pays them from scratch.  Real
Octo-Tiger runs repeat the same early topologies across restarts, parameter
scans and rank counts, so this module gives plans the same treatment the
distributed runtime gives messages: a content-addressed store keyed on the
mesh's deterministic :meth:`repro.octree.mesh.AmrMesh.fingerprint` (stable
across runs *and* ranks), holding the expensive-to-derive pair/index arrays
in flat ``.npz`` payloads.

Design contract (shared with ``docs/plan_lifecycle.md``):

* **Content-addressed** — an entry's filename is
  ``<kind>-<sha256(fingerprint + params)>.npz``; identical topology +
  parameters hit the same entry from any process.
* **Versioned** — every payload embeds a format-version and the full key
  material; a version bump or key mismatch reads as a miss, never as a
  wrong plan.
* **Atomic** — writes go to a same-directory temp file and ``os.replace``
  onto the final name, so concurrent writers and readers only ever see
  complete entries (both racing writers produce identical bytes anyway).
* **Corruption-tolerant** — any failure to read/parse/validate an entry is
  a miss: the caller cold-builds and overwrites the bad entry.  A cache
  can be deleted at any time; it is never authoritative state.

The payloads deliberately store only the *canonical substrate* a plan is
assembled from (e.g. the FMM traversal's canonical pair arrays), not the
assembled plan object: the substrate is small, trivially serialisable, and
the assembly step is deterministic — so a cache hit is bit-identical to a
cold build by the same argument that makes delta rebuilds exact.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.ioutil.atomic import atomic_write

#: Bump when any payload layout or plan-assembly semantics change: old
#: entries then read as misses and are rewritten, never misinterpreted.
#: v4: hydro payloads are the per-locality-pair ghost bundle arrays
#: (:meth:`repro.comms.bundle.GhostBundlePlan.to_payload`), keyed on the rank
#: count as well; v3 stored the class-grouped index format that no longer
#: exists.  The version is part of the entry digest, so v3 files simply miss.
CACHE_FORMAT_VERSION = 4

_META_KEY = "__plancache_meta__"


def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro/plans`` (``~/.cache/repro/plans`` fallback)."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "repro" / "plans"


def _canonical_params(params: Dict) -> str:
    """Deterministic JSON encoding of the non-topology key material."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0


class PlanCache:
    """On-disk content-addressed store of plan substrates.

    ``kind`` namespaces the plan layer (``"fmm"``, ``"hydro"``, ...);
    ``fingerprint`` is the mesh topology hash; ``params`` carries every
    non-topology input that shapes the payload (e.g. ``theta``).  All three
    are baked into both the entry filename and the embedded metadata, so a
    lookup can never return a payload built for different inputs.
    """

    def __init__(self, directory: Optional[os.PathLike] = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.stats = CacheStats()

    @classmethod
    def of(cls, value) -> Optional[PlanCache]:  # noqa: ANN001
        """The store handle for a ``plan_cache=`` argument: ``None`` stays
        ``None`` (no persistence), a store is used as given, and a
        directory path opens a fresh handle rooted there."""
        if value is None or hasattr(value, "load"):
            return value
        return cls(value)

    # -- keys ---------------------------------------------------------------
    def _entry_path(self, kind: str, fingerprint: str, params: Dict) -> Path:
        digest = hashlib.sha256(
            f"{CACHE_FORMAT_VERSION}\n{kind}\n{fingerprint}\n"
            f"{_canonical_params(params)}".encode()
        ).hexdigest()
        return self.directory / f"{kind}-{digest[:32]}.npz"

    def contains(self, kind: str, fingerprint: str, params: Dict) -> bool:
        """Whether an entry exists for this key — an existence probe only
        (no read or validation; a corrupt entry still reads as a miss in
        :meth:`load`).  Lets incremental rebuilds skip re-storing a
        payload the cold build already wrote."""
        try:
            return self._entry_path(kind, fingerprint, params).exists()
        except OSError:
            return False

    # -- store --------------------------------------------------------------
    def store(
        self,
        kind: str,
        fingerprint: str,
        params: Dict,
        payload: Dict[str, np.ndarray],
    ) -> bool:
        """Atomically persist ``payload``; returns False on any I/O failure
        (a cache store must never fail the run)."""
        meta = json.dumps(
            {
                "version": CACHE_FORMAT_VERSION,
                "kind": kind,
                "fingerprint": fingerprint,
                "params": _canonical_params(params),
            }
        )
        try:
            buf = io.BytesIO()
            np.savez(
                buf,
                **{_META_KEY: np.frombuffer(meta.encode(), dtype=np.uint8)},
                **payload,
            )
            self.directory.mkdir(parents=True, exist_ok=True)
            with atomic_write(self._entry_path(kind, fingerprint, params)) as fh:
                fh.write(buf.getvalue())
        except (OSError, ValueError):
            self.stats.errors += 1
            return False
        self.stats.stores += 1
        return True

    # -- load ---------------------------------------------------------------
    def load(
        self, kind: str, fingerprint: str, params: Dict
    ) -> Optional[Dict[str, np.ndarray]]:
        """Return the stored payload or ``None`` — every failure mode
        (missing, truncated, corrupted, wrong version, key collision) is a
        miss, so callers always have the cold build as fallback."""
        path = self._entry_path(kind, fingerprint, params)
        try:
            with np.load(path, allow_pickle=False) as npz:
                meta_arr = npz[_META_KEY]
                meta = json.loads(bytes(meta_arr.tobytes()).decode())
                if (
                    meta.get("version") != CACHE_FORMAT_VERSION
                    or meta.get("kind") != kind
                    or meta.get("fingerprint") != fingerprint
                    or meta.get("params") != _canonical_params(params)
                ):
                    self.stats.misses += 1
                    return None
                payload = {
                    name: npz[name] for name in npz.files if name != _META_KEY
                }
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except Exception:
            # Truncated/corrupt entry (bad zip, bad JSON, pickle refusal...):
            # treat as a miss; the subsequent store overwrites it atomically.
            self.stats.errors += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload
