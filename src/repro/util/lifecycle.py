"""The one plan lifecycle: match → delta → cache hit → cold.

Lives below every plan layer (``repro.hydro``, ``repro.gravity``) so both
can subclass it at import time; the persistent store it consults
(:class:`repro.core.plancache.PlanCache`) is constructed by the driver/CLI
layer and handed down as an opaque handle with ``load / contains / store``.

It is also the one place that learns what changed since the last plan:
it records the topology each plan serves and itself derives which keys
changed between that topology and the live mesh, so no caller announces
a regrid and a direct ``refine``/``derefine`` is as incremental as
:func:`repro.octree.regrid.regrid`.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional, Tuple

import numpy as np

from repro.profiling.apex import CounterRegistry, global_registry


class PlanLifecycle:
    """One plan kind's current plan and the one way it is (re)obtained.

    Every plan layer answers "give me the plan for this mesh" the same
    way: (1) the current plan still **matches** — free; (2) a **delta**
    rebuild that reuses what the previous plan holds for the keys that did
    not change since the topology it was built for; (3) a **cache hit**
    on the persistent :class:`~repro.core.plancache.PlanCache`, keyed on
    the mesh fingerprint plus the kind's parameters; (4) the **cold**
    build.  All tiers build bit-identical plans; the
    ``plan.<kind>.{delta,cache_hit,cold}`` timers and ``*_builds``
    counters record which one ran, ``<kind>.plan_builds`` every (re)build.
    Delta- and cold-built plans are both stored back (a topology only ever
    reached incrementally would otherwise miss on every rerun).

    A plan kind subclasses this, sets :attr:`kind` and fills in the four
    hooks below; ``request`` is whatever per-call keywords the kind needs
    (``nranks`` for hydro), handed to every hook unchanged.  See
    ``docs/plan_lifecycle.md``.
    """

    kind = ""

    def __init__(self, cache=None) -> None:  # noqa: ANN001 - PlanCache
        self.cache = cache
        self.plan: Any = None
        #: ``(node keys, leaf keys)`` of the topology :attr:`plan` serves.
        self.topology: Optional[Tuple[FrozenSet, FrozenSet]] = None

    # -- per-kind hooks --------------------------------------------------------
    def matches(self, plan, mesh, **request) -> bool:  # noqa: ANN001
        """Whether ``plan`` still serves ``mesh`` under ``request``."""
        raise NotImplementedError

    def params(self, mesh, **request) -> Dict:  # noqa: ANN001
        """Non-topology key material of the cache entry."""
        raise NotImplementedError

    def build(self, tier, prev, mesh, changed, payload=None, **request):  # noqa: ANN001, ANN201
        """Build the plan in ``tier``: ``"delta"`` incrementally from
        ``prev`` (or return ``None`` to fall through), ``"cache_hit"``
        from the stored ``payload``, ``"cold"`` from scratch.  ``prev`` is
        the :meth:`donor` (possibly ``None``) and ``changed`` the frozen
        set of keys that were added, removed or toggled leaf/interior
        since the topology ``prev`` was built for (``None`` exactly when
        ``prev`` is); every tier gets both, since a donor may still lend
        recomputable state to a cache-hit or cold build."""
        raise NotImplementedError

    def payload_of(self, plan) -> Dict[str, np.ndarray]:  # noqa: ANN001
        """The canonical substrate the cache stores for ``plan``."""
        raise NotImplementedError

    @staticmethod
    def donor(prev, mesh):  # noqa: ANN001, ANN205
        """``prev`` if it may donate recomputable per-leaf state (cell
        positions, P2P gather matrices, ghost face traces) to a build for
        ``mesh``, else ``None``: only sound within one ``(n, ghost,
        domain_size)`` geometry family — node keys alone don't pin the
        geometry."""
        if prev is None or prev.n != mesh.n:
            return None
        old_mesh = prev.mesh_ref()
        if old_mesh is not mesh and (
            old_mesh is None
            or (old_mesh.ghost, old_mesh.domain_size) != (mesh.ghost, mesh.domain_size)
        ):
            return None
        return prev

    # -- the lifecycle ----------------------------------------------------------
    def drop(self) -> None:
        """Forget the current plan and its topology (the next request
        builds without a donor)."""
        self.plan = self.topology = None

    def plan_for(self, mesh, registry: Optional[CounterRegistry] = None, **request):  # noqa: ANN001, ANN201
        """The plan for ``mesh``, rebuilt through the cheapest valid tier."""
        if self.plan is not None and self.matches(self.plan, mesh, **request):
            return self.plan
        reg = registry if registry is not None else global_registry()
        cache, kind = self.cache, self.kind
        key = (kind, mesh.fingerprint(), self.params(mesh, **request))
        live = (frozenset(mesh.nodes), frozenset(mesh.leaf_keys()))
        prev = self.donor(self.plan, mesh)
        changed = None
        if prev is not None:
            (old_nodes, old_leaves), (new_nodes, new_leaves) = self.topology, live
            changed = (old_nodes ^ new_nodes) | (old_leaves ^ new_leaves)
        plan = None
        for tier in ("delta", "cache_hit", "cold"):
            hit = tier == "cache_hit"
            payload = cache.load(*key) if hit and cache is not None else None
            if (tier == "delta" and prev is None) or (hit and payload is None):
                continue
            with reg.timer(f"plan.{kind}.{tier}"):
                plan = self.build(tier, prev, mesh, changed, payload, **request)
            if plan is not None:
                break
        reg.increment(f"plan.{kind}.{tier}_builds")
        reg.increment(f"{kind}.plan_builds")
        # A cold build always writes (it also overwrites an entry that
        # failed to load); a delta build is just as good a seed, but skips
        # the write when the entry already exists.
        if cache is not None and (
            tier == "cold" or (tier == "delta" and not cache.contains(*key))
        ):
            cache.store(*key, self.payload_of(plan))
        self.plan, self.topology = plan, live
        return plan
