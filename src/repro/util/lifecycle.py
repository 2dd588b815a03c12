"""The one plan lifecycle: match → delta → cache hit → cold.

Lives below every plan layer (``repro.hydro``, ``repro.gravity``) so both
can subclass it at import time; the persistent store it consults
(:class:`repro.core.plancache.PlanCache`) is constructed by the driver/CLI
layer and handed down as an opaque handle with ``load / contains / store``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.profiling.apex import CounterRegistry, global_registry


class PlanLifecycle:
    """One plan kind's current plan and the one way it is (re)obtained.

    Every plan layer answers "give me the plan for this mesh" the same
    way: (1) the current plan still **matches** — free; (2) a **delta**
    rebuild from the previous plan (announced regrid); (3) a **cache hit**
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

    # -- per-kind hooks --------------------------------------------------------
    def matches(self, plan, mesh, **request) -> bool:  # noqa: ANN001
        """Whether ``plan`` still serves ``mesh`` under ``request``."""
        raise NotImplementedError

    def params(self, mesh, **request) -> Dict:  # noqa: ANN001
        """Non-topology key material of the cache entry."""
        raise NotImplementedError

    def build(self, tier, prev, mesh, payload=None, **request):  # noqa: ANN001, ANN201
        """Build the plan in ``tier``: ``"delta"`` incrementally from
        ``prev`` (or return ``None`` to fall through), ``"cache_hit"`` from
        the stored ``payload``, ``"cold"`` from scratch (``prev``, possibly
        ``None``, may still donate recomputable state)."""
        raise NotImplementedError

    def payload_of(self, plan) -> Dict[str, np.ndarray]:  # noqa: ANN001
        """The canonical substrate the cache stores for ``plan``."""
        raise NotImplementedError

    @staticmethod
    def donor(prev, mesh):  # noqa: ANN001, ANN205
        """``prev`` if it may donate recomputable per-leaf state (cell
        positions, P2P gather matrices) to a build for ``mesh``, else
        ``None``: only sound within one ``(n, domain_size)`` geometry
        family — node keys alone don't pin the geometry."""
        if prev is None or prev.n != mesh.n:
            return None
        old_mesh = prev.mesh_ref()
        if old_mesh is not mesh and (
            old_mesh is None or old_mesh.domain_size != mesh.domain_size
        ):
            return None
        return prev

    # -- the lifecycle ----------------------------------------------------------
    def drop(self) -> None:
        """Forget the current plan (the next request rebuilds it)."""
        self.plan = None

    def plan_for(self, mesh, registry: Optional[CounterRegistry] = None, **request):  # noqa: ANN001, ANN201
        """The plan for ``mesh``, rebuilt through the cheapest valid tier."""
        if self.plan is not None and self.matches(self.plan, mesh, **request):
            return self.plan
        reg = registry if registry is not None else global_registry()
        prev, cache, kind = self.plan, self.cache, self.kind
        key = (kind, mesh.fingerprint(), self.params(mesh, **request))
        plan = None
        for tier in ("delta", "cache_hit", "cold"):
            hit = tier == "cache_hit"
            payload = cache.load(*key) if hit and cache is not None else None
            if (tier == "delta" and prev is None) or (hit and payload is None):
                continue
            with reg.timer(f"plan.{kind}.{tier}"):
                plan = self.build(tier, prev, mesh, payload, **request)
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
        self.plan = plan
        return plan
