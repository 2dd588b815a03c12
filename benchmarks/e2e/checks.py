"""Output checks run at the end of every workload subprocess.

Each check returns ``{"ok", "value", "limit"}``; a run whose checks do not
all pass counts every one of its operations as failed.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Tuple

import numpy as np

from repro.octree.fields import Field

#: FMM acceleration against a direct sum on this many sampled target cells.
FMM_TARGETS = 256
FMM_MEDIAN_LIMIT = 2e-3
#: Twice the worst error seen in 40 subprocesses of the regrid workload
#: (4.8e-2, at heavy cells next to a coarse-fine face).
FMM_MAX_LIMIT = 1e-1
SEDOV_LIMIT = 0.15

Check = Dict[str, Any]


def _check(ok: bool, value: Any, limit: Any) -> Check:
    return {"ok": bool(ok), "value": value, "limit": limit}


def state_sha256(mesh) -> str:  # noqa: ANN001 - AmrMesh
    """Hash of every leaf's interior fields in key order (ghost bands are
    scratch and differ legitimately between backends)."""
    digest = hashlib.sha256()
    for key in sorted(mesh.leaf_keys()):
        digest.update(repr(key).encode())
        interior = mesh.nodes[key].subgrid.interior_view()
        digest.update(np.ascontiguousarray(interior).tobytes())
    return digest.hexdigest()


def state_is_sane(mesh) -> bool:  # noqa: ANN001 - AmrMesh
    """All leaf fields finite and the density strictly positive."""
    for leaf in mesh.leaves():
        interior = leaf.subgrid.interior_view()
        if not np.isfinite(interior).all() or interior[Field.RHO].min() <= 0.0:
            return False
    return True


def mass_drift(mesh, mass0: float, tol: float) -> Check:  # noqa: ANN001
    drift = abs(mesh.total_mass() - mass0) / mass0
    return _check(drift <= tol, drift, tol)


def sedov_radius(scenario, time: float) -> Check:  # noqa: ANN001 - BlastScenario
    """Measured shock radius against the self-similar solution."""
    expected = scenario.sedov_radius(time)
    error = abs(scenario.shock_radius() - expected) / expected
    return _check(error <= SEDOV_LIMIT, error, SEDOV_LIMIT)


def _cell_points(mesh) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:  # noqa: ANN001
    """(positions, masses, leaf-major flat index -> leaf key order)."""
    keys = sorted(mesh.leaf_keys())
    pos, mass = [], []
    for key in keys:
        leaf = mesh.nodes[key]
        x, y, z = leaf.cell_centers()
        pos.append(np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1))
        mass.append(leaf.subgrid.interior_view(Field.RHO).ravel() * leaf.cell_volume)
    return np.concatenate(pos), np.concatenate(mass), np.asarray(keys)


def fmm_accuracy(solver, mesh, seed: int) -> Tuple[Check, Check]:  # noqa: ANN001
    """Relative error of the FMM acceleration against a chunked direct sum
    on seeded targets drawn from the most massive cells: (median, max)."""
    pos, mass, keys = _cell_points(mesh)
    accel = solver.solve(mesh).accel
    fmm = np.concatenate(
        [accel[tuple(key)].reshape(3, -1).T for key in keys.tolist()]
    )
    rng = np.random.default_rng(seed)
    heavy = np.argsort(mass)[-16 * FMM_TARGETS:]
    targets = rng.choice(heavy, size=min(FMM_TARGETS, heavy.size), replace=False)
    direct = np.empty((targets.size, 3))
    for lo in range(0, targets.size, 32):
        chunk = targets[lo:lo + 32]
        delta = pos[None, :, :] - pos[chunk][:, None, :]
        r2 = np.einsum("tsi,tsi->ts", delta, delta)
        r2[np.arange(chunk.size), chunk] = np.inf  # no self-interaction
        weight = mass[None, :] / (r2 * np.sqrt(r2))
        direct[lo:lo + 32] = np.einsum("ts,tsi->ti", weight, delta)
    error = np.linalg.norm(fmm[targets] - direct, axis=1) / np.linalg.norm(
        direct, axis=1
    )
    median, worst = float(np.median(error)), float(error.max())
    return (
        _check(median <= FMM_MEDIAN_LIMIT, median, FMM_MEDIAN_LIMIT),
        _check(worst <= FMM_MAX_LIMIT, worst, FMM_MAX_LIMIT),
    )


def equals(value: Any, expected: Any) -> Check:
    return _check(value == expected, value, expected)


def informational(value: Any) -> Check:
    """Recorded, never failed."""
    return _check(True, value, None)
