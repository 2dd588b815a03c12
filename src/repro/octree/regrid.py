"""Dynamic regridding: refinement criteria evaluated during evolution.

Octo-Tiger adapts its mesh on the density field and on the tracer fields
that track the binary components' original mass fractions (paper SIII-C).
A :class:`RefinementCriterion` decides per leaf whether it should refine or
may coarsen; :func:`regrid` applies the decisions while preserving the
2:1 balance and conservation (prolongation/restriction are conservative,
tested).

A regrid announces nothing to the plan layers.  Each plan remembers the
topology it was built for, and the next plan request
(:meth:`repro.util.lifecycle.PlanLifecycle.plan_for`) derives the keys
that changed since from that topology and the live mesh: the hydro plan
re-traces only the ghost faces they touch, and the FMM plan reuses its
predecessor's per-leaf cell positions.  A direct ``refine``/``derefine``
therefore gets the same incremental rebuild as a :func:`regrid` call (see
``docs/plan_lifecycle.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.octree.mesh import AmrMesh
from repro.octree.node import OctreeNode


class RefinementCriterion(Protocol):
    """Per-leaf refinement decision."""

    def wants_refinement(self, leaf: OctreeNode) -> bool: ...  # noqa: D102, E704

    def allows_coarsening(self, leaf: OctreeNode) -> bool: ...  # noqa: D102, E704


@dataclass
class RegridResult:
    refined: int
    coarsened: int

    @property
    def changed(self) -> bool:
        return bool(self.refined or self.coarsened)


def regrid(
    mesh: AmrMesh,
    criterion: RefinementCriterion,
    max_level: int,
    min_level: int = 0,
    max_rounds: int = 8,
) -> RegridResult:
    """Apply a refinement criterion to the evolving mesh.

    Refinement first (cascades preserve 2:1 balance automatically), then
    conservative coarsening of sibling groups whose eight leaves all allow
    it.  Coarsening that would violate balance is skipped, not forced.
    Returns how many leaves were refined and how many sibling groups were
    coarsened.
    """
    refined = 0
    for _ in range(max_rounds):
        to_refine = [
            leaf.key
            for leaf in mesh.leaves()
            if leaf.level < max_level and criterion.wants_refinement(leaf)
        ]
        if not to_refine:
            break
        for key in to_refine:
            node = mesh.get(key)
            if node is not None and node.is_leaf:
                mesh.refine(key)
                refined += 1

    coarsened = 0
    # Visit parents of leaf octets, deepest level first.
    for level in range(mesh.max_level(), min_level, -1):
        parents = {
            leaf.parent_key
            for leaf in mesh.leaves()
            if leaf.level == level and leaf.parent_key is not None
        }
        for parent_key in sorted(parents):
            parent = mesh.get(parent_key)
            if parent is None or parent.is_leaf:
                continue
            children = [mesh.get(k) for k in parent.children_keys()]
            if any(c is None or not c.is_leaf for c in children):
                continue
            if not all(criterion.allows_coarsening(c) for c in children):
                continue
            try:
                mesh.derefine(parent_key)
            except ValueError:
                continue  # would break 2:1 balance; keep refined
            coarsened += 1
    return RegridResult(refined=refined, coarsened=coarsened)
