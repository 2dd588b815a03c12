"""Timestep control.

Octo-Tiger does **not** use adaptive (per-level) time stepping: one global
dt, the minimum CFL limit over every leaf, advances the whole tree — that is
what keeps conservation at machine precision.  We reproduce that policy.

The per-leaf signal (peak wave speed) is a pure reduction over the leaf's
interior, so the batched integrator folds it into the end of each step and
:func:`global_timestep` can be served from that cache (``signals=``) instead
of re-walking the mesh; both paths share :func:`max_signal_subgrid` /
``_dt_from_peak`` so the cached and recomputed dt agree exactly.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.hydro.eos import IdealGasEOS
from repro.hydro.primitives import primitives_from_conserved
from repro.octree.mesh import AmrMesh
from repro.octree.node import NodeKey
from repro.octree.subgrid import SubGrid

#: Courant number of every step.
CFL = 0.4


def max_signal_subgrid(sg: SubGrid, eos: IdealGasEOS) -> float:
    """Peak CFL wave speed ``|vx| + |vy| + |vz| + 3c`` over one interior."""
    s = sg.interior
    u = sg.data[:, s, s, s]
    w = primitives_from_conserved(u, eos)
    c = eos.sound_speed(w["rho"], w["p"])
    speed = np.abs(w["vx"]) + np.abs(w["vy"]) + np.abs(w["vz"]) + 3.0 * c
    return float(speed.max())


def _dt_from_peak(dx: float, peak: float) -> float:
    if peak <= 0.0:
        return np.inf
    return CFL * dx / peak


def global_timestep(
    mesh: AmrMesh,
    eos: IdealGasEOS,
    signals: Optional[Dict[NodeKey, float]] = None,
) -> float:
    """The single global dt: minimum CFL limit over all leaves.

    ``signals`` optionally maps leaf keys to cached peak wave speeds (from
    the last step's signal reduction); leaves present in it skip the
    primitives recomputation.  Missing leaves fall back to the full
    computation, so a partially stale cache is still correct.
    """
    dt = np.inf
    for leaf in mesh.leaves():
        peak = signals.get(leaf.key) if signals is not None else None
        if peak is None:
            peak = max_signal_subgrid(leaf.subgrid, eos)
        dt = min(dt, _dt_from_peak(leaf.dx, peak))
    if not np.isfinite(dt):
        raise ValueError("global timestep is unbounded: mesh holds no signal")
    return dt
