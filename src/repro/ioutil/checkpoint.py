"""Octree checkpointing on ``.npz`` containers."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.ioutil.atomic import atomic_write
from repro.octree.mesh import AmrMesh
from repro.octree.node import OctreeNode

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file exists but cannot be restored (truncated or
    corrupt archive, missing member, unsupported format version)."""


def save_checkpoint(
    mesh: AmrMesh,
    path: Union[str, Path],
    time: float = 0.0,
    step: int = 0,
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write the full mesh (topology + every node's fields) to ``path``.

    Returns the path written (``.npz`` appended if missing).  The archive
    goes to a same-directory temp file and is ``os.replace``d onto the
    final name, so a crash mid-write never leaves a torn newest checkpoint
    — readers see the previous complete file or the new one.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")

    keys = sorted(mesh.nodes)
    levels = np.array([k[0] for k in keys], dtype=np.int64)
    codes = np.array([k[1] for k in keys], dtype=np.int64)
    if any(k[1] > np.iinfo(np.int64).max for k in keys):
        raise OverflowError("Morton codes exceed int64; deepen the container format")
    leaf_flags = np.array([mesh.nodes[k].is_leaf for k in keys], dtype=bool)
    localities = np.array([mesh.nodes[k].locality for k in keys], dtype=np.int64)
    blocks = np.stack([mesh.nodes[k].subgrid.data for k in keys])

    meta = {
        "format_version": FORMAT_VERSION,
        "n": mesh.n,
        "ghost": mesh.ghost,
        "domain_size": mesh.domain_size,
        "time": time,
        "step": step,
        "extra": extra or {},
    }
    with atomic_write(path) as fh:
        np.savez_compressed(
            fh,
            levels=levels,
            codes=codes,
            leaf_flags=leaf_flags,
            localities=localities,
            blocks=blocks,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )
    return path


def load_checkpoint(path: Union[str, Path]) -> Tuple[AmrMesh, Dict[str, Any]]:
    """Restore a mesh and its metadata record.

    Raises :class:`CheckpointError` for any file that is there but not a
    restorable checkpoint (``FileNotFoundError`` for one that is not there).
    """
    try:
        return _load(Path(path))
    except (CheckpointError, FileNotFoundError):
        raise
    except Exception as exc:  # bad zip, missing member, bad JSON, bad shapes...
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc


def _load(path: Path) -> Tuple[AmrMesh, Dict[str, Any]]:
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["meta"].tobytes()).decode())
        if meta.get("format_version") != FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint format {meta.get('format_version')!r}"
            )
        mesh = AmrMesh(
            n=meta["n"], ghost=meta["ghost"], domain_size=meta["domain_size"]
        )
        mesh.nodes.clear()
        levels = archive["levels"]
        codes = archive["codes"]
        leaf_flags = archive["leaf_flags"]
        localities = archive["localities"]
        blocks = archive["blocks"]
        for i in range(levels.shape[0]):
            node = OctreeNode(
                int(levels[i]),
                int(codes[i]),
                n=meta["n"],
                ghost=meta["ghost"],
                domain_size=meta["domain_size"],
            )
            node.is_leaf = bool(leaf_flags[i])
            node.locality = int(localities[i])
            np.copyto(node.subgrid.data, blocks[i])
            mesh.nodes[node.key] = node
    mesh.check_invariants()
    return mesh, meta
