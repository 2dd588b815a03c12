"""Delta-maintained and cache-served plans are bit-identical to cold
rebuilds, and every plan kind goes through the one shared lifecycle.

Hypothesis sweeps drive random refine/coarsen sequences and assert,
array for array, that the incremental path of each plan layer — FmmPlan (a
donor-lent build through ``FmmSolver.plan_for``), HydroPlan (trace-cache
delta rebuild through ``plan_for``), and the ghost bundle plan
(trace-cache reuse after ``FaceTraceCache.drop``) — produces exactly the
plan a cold build would; a cache-hit hydro plan equals a cold one for one and two ranks.
No test announces a topology change: the lifecycle derives the changed
keys from the topology each plan was built for, so direct ``refine`` /
``derefine`` calls and ``regrid`` are incremental alike, on the serial,
process and DES interpreters.  One parametrised case drives the shared
``PlanLifecycle`` for both kinds through match / cold / delta / cache
hit.  A final group runs the blast with a plan cache on both the serial
and process backends: the cache is honoured on both and keeps them
bit-identical.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import fill_gaussian, make_uniform_mesh
from repro.comms import adopt_arena, build_bundle_plan
from repro.core.plancache import PlanCache
from repro.gravity.fmm import THETA, FmmSolver
from repro.gravity.plan import build_plan
from repro.hydro.integrator import HydroIntegrator
from repro.hydro.plan import HydroPlanLifecycle, build_hydro_plan
from repro.octree.ghost import FaceTraceCache
from repro.octree.mesh import AmrMesh
from repro.octree.partition import sfc_partition
from repro.octree.regrid import regrid
from repro.profiling import CounterRegistry

#: Attributes a structural plan comparison must skip: back-references to
#: the live mesh, uninitialized scratch buffers (np.empty allocations
#: whose bytes are meaningless until the first pack()/apply()),
#: the chain-wide gather_store, whose *contents* vary by rebuild path (a
#: delta chain may carry gather matrices for level differences a one-shot
#: cold build never met; each class's own ``gather`` is compared), and the
#: per-object blocks_verified verdict.
_SKIP_ATTRS = {
    "mesh_ref",
    "payload",
    "_fine_acc",
    "_fine_tmp",
    "blocks_verified",
    "gather_store",
}


def assert_plans_equal(a, b, path="plan"):
    """Recursive array-for-array equality over two plan object graphs."""
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, f"{path}: dtype {a.dtype} != {b.dtype}"
        assert np.array_equal(a, b), f"{path}: arrays differ"
        return
    if isinstance(a, dict):
        assert sorted(map(repr, a)) == sorted(map(repr, b)), f"{path}: keys"
        for key in a:
            assert_plans_equal(a[key], b[key], f"{path}[{key!r}]")
        return
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length {len(a)} != {len(b)}"
        for i, (xa, xb) in enumerate(zip(a, b)):
            assert_plans_equal(xa, xb, f"{path}[{i}]")
        return
    if isinstance(a, slice):
        assert a == b, f"{path}: {a} != {b}"
        return
    if hasattr(a, "__dict__") or hasattr(a, "__dataclass_fields__"):
        for name, value in sorted(vars(a).items()):
            if name in _SKIP_ATTRS:
                continue
            assert_plans_equal(value, getattr(b, name), f"{path}.{name}")
        return
    assert a == b, f"{path}: {a!r} != {b!r}"


def apply_ops(mesh, ops, max_level=3):
    """Resolve refine/derefine picks against the live mesh; return the set
    of keys added, removed or toggled between leaf and interior (empty if
    the topology ended where it started)."""
    old_nodes = frozenset(mesh.nodes)
    old_leaves = frozenset(mesh.leaf_keys())
    for op, pick in ops:
        if op == "refine":
            candidates = sorted(k for k in mesh.leaf_keys() if k[0] < max_level)
            if not candidates:
                continue
            mesh.refine(candidates[pick % len(candidates)])
        else:
            candidates = []
            for key, node in sorted(mesh.nodes.items()):
                if node.is_leaf:
                    continue
                children = [mesh.nodes[k] for k in node.children_keys()]
                if all(c.is_leaf for c in children):
                    candidates.append(key)
            if not candidates:
                continue
            try:
                mesh.derefine(candidates[pick % len(candidates)])
            except ValueError:
                continue  # would break 2:1 balance
    return (old_nodes ^ frozenset(mesh.nodes)) | (old_leaves ^ frozenset(mesh.leaf_keys()))


@st.composite
def _mutation_sequences(draw):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["refine", "derefine"]), st.integers(0, 63)
            ),
            min_size=1,
            max_size=4,
        )
    )


class TestFmmDeltaEquivalence:
    @given(ops=_mutation_sequences())
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_update_plan_identical_to_cold(self, ops):
        """The solver's plan after any refine/derefine sequence is one
        delta build (its previous plan donates cell positions and gather
        matrices) and equals a cold build array for array."""
        mesh = make_uniform_mesh(2, n=4)
        fill_gaussian(mesh)
        solver = FmmSolver()
        solver.registry = reg = CounterRegistry()
        solver.plan_for(mesh)
        if not apply_ops(mesh, ops):
            return
        warm = solver.plan_for(mesh)
        assert reg.count("plan.fmm.delta_builds") == 1
        assert_plans_equal(warm, build_plan(mesh, theta=THETA))


class TestHydroDeltaEquivalence:
    @given(
        first=_mutation_sequences(),
        second=_mutation_sequences(),
        pick=st.integers(0, 63),
    )
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_plan_for_delta_identical_to_cold(self, first, second, pick):
        """Two mutation sequences between two plan requests, with a leaf
        the first one refines coarsened back after the second: the plan
        the lifecycle derives from its recorded topology is the cold
        one."""
        mesh = make_uniform_mesh(1, n=4)
        fill_gaussian(mesh)
        integ = HydroIntegrator(mesh)
        integ.plan_for()  # cold build populates the trace cache
        apply_ops(mesh, first)
        candidates = sorted(k for k in mesh.leaf_keys() if k[0] < 3)
        there_and_back = candidates[pick % len(candidates)]
        mesh.refine(there_and_back)
        apply_ops(mesh, second)
        node = mesh.get(there_and_back)
        if node is not None and not node.is_leaf:
            try:
                mesh.derefine(there_and_back)
            except ValueError:
                pass  # refined further, or 2:1 balance
        warm = integ.plan_for()
        cold = build_hydro_plan(mesh)  # reprolint: sanctioned-cold-build
        assert_plans_equal(warm.ghosts, cold.ghosts)
        assert warm.leaf_keys == cold.leaf_keys
        assert warm.fingerprint == cold.fingerprint
        assert warm.slot == cold.slot

    @pytest.mark.parametrize("nranks", [1, 2])
    def test_cache_hit_plan_identical_to_cold(self, tmp_path, nranks):
        """A plan assembled from the stored payload is the whole plan a
        cold build produces — bundles, runs, reflux table — so it can
        drive any interpreter."""
        mesh = make_uniform_mesh(1, n=4)
        mesh.refine(sorted(mesh.leaf_keys())[0])
        fill_gaussian(mesh)
        cold = build_hydro_plan(mesh, nranks=nranks)
        cache = PlanCache(tmp_path)
        cache.store("hydro", cold.fingerprint, {}, cold.ghosts.to_payload())
        hit = build_hydro_plan(
            mesh, nranks=nranks,
            payload=cache.load("hydro", cold.fingerprint, {}),
        )
        assert sorted(hit.ghosts.bundles) == sorted(cold.ghosts.bundles)
        assert_plans_equal(hit.ghosts, cold.ghosts)
        assert_plans_equal(hit.runs, cold.runs)
        assert_plans_equal(hit.reflux_table, cold.reflux_table)
        assert np.array_equal(hit.rank_of, cold.rank_of)


class TestSharedLifecycle:
    @pytest.mark.parametrize("kind", ["hydro", "fmm"])
    def test_match_cold_delta_cache_hit(self, tmp_path, kind):
        """Both plan kinds reach their plans through the same holder: the
        tiers fire in the same order and report under the same counter
        names, ``plan.<kind>.{cold,delta,cache_hit}`` + ``*_builds``."""
        from repro.gravity.fmm import FmmPlanLifecycle
        from repro.hydro.plan import HydroPlanLifecycle
        from repro.profiling.apex import CounterRegistry

        make, request = {
            "hydro": (HydroPlanLifecycle, {}),
            "fmm": (FmmPlanLifecycle, {"theta": 0.5}),
        }[kind]
        mesh = make_uniform_mesh(2, n=4)
        fill_gaussian(mesh)
        reg = CounterRegistry()

        def tiers():
            return tuple(
                reg.count(f"plan.{kind}.{tier}_builds")
                for tier in ("cold", "delta", "cache_hit")
            )

        holder = make(PlanCache(tmp_path))
        first = holder.plan_for(mesh, reg, **request)
        assert tiers() == (1, 0, 0)
        assert reg.count(f"plan.{kind}.cold") == 1  # the timer
        assert holder.plan_for(mesh, reg, **request) is first  # match: free
        assert tiers() == (1, 0, 0)

        apply_ops(mesh, [("refine", 5)])
        second = holder.plan_for(mesh, reg, **request)
        assert second is not first
        assert tiers() == (1, 1, 0)
        assert reg.count(f"{kind}.plan_builds") == 2
        # Both builds were stored (the delta one under its own topology).
        assert holder.cache.stats.stores == 2

        fresh = make(PlanCache(tmp_path))  # a restart on the warmed cache
        third = fresh.plan_for(mesh, reg, **request)
        assert tiers() == (1, 1, 1)
        assert reg.count(f"plan.{kind}.cache_hit") == 1
        assert third.fingerprint == second.fingerprint


class TestBundleDeltaEquivalence:
    @given(ops=_mutation_sequences(), nprocs=st.sampled_from([1, 2, 4]))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_trace_reuse_identical_to_cold(self, ops, nprocs):
        mesh = make_uniform_mesh(1, n=4)
        fill_gaussian(mesh)
        locality = sfc_partition(mesh, nprocs)
        _, offsets = adopt_arena(mesh)
        cache = FaceTraceCache()
        build_bundle_plan(mesh, offsets, locality, trace_cache=cache)
        cache.drop(apply_ops(mesh, ops))
        locality = sfc_partition(mesh, nprocs)
        _, offsets = adopt_arena(mesh)
        warm = build_bundle_plan(mesh, offsets, locality, trace_cache=cache)
        cold = build_bundle_plan(mesh, offsets, locality)
        assert_plans_equal(warm, cold)


class _Window:
    """Refine the level-2 leaves near ``centre``; coarsen level-3 leaves
    whose parent lies outside (the e2e DWD workload's criterion)."""

    def __init__(self, centre, radius):
        self.centre, self.radius = np.asarray(centre), radius

    def _inside(self, point):
        return bool(np.linalg.norm(point - self.centre) < self.radius)

    def wants_refinement(self, leaf):
        return leaf.level == 2 and self._inside(leaf.center)

    def allows_coarsening(self, leaf):
        size = leaf.node_size
        parent = leaf.origin - np.asarray(leaf.coords) % 2 * size + size
        return leaf.level > 2 and not self._inside(parent)


def _payload_digest(payload):
    h = hashlib.sha256()
    for name in sorted(payload):
        a = np.ascontiguousarray(payload[name])
        h.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


class TestPayloadAlongTheRegridChain:
    #: sha256 over the chain's payload digests, recorded when traces still
    #: held intp arrays with a divmod memo: compacting the traces must not
    #: move a byte of the plan.
    DIGESTS = {
        1: "0a9c2fe0cd7eba5a36b9f830557f2c98d7e8695e7055ddc0c4597d528c71ac00",
        2: "df796ea24297a6a45d022da0418906b942d78b64fd2b4c30655dc0d1a5d814c1",
    }

    @pytest.mark.parametrize("nranks", [1, 2])
    def test_to_payload_bytes_unchanged(self, nranks):
        """The DWD level-2 topology (64 leaves on a domain of 2) with its
        refinement window hopping between two sites: a cold build, then
        four trace-cache delta rebuilds the lifecycle derives itself."""
        mesh = AmrMesh(n=8, ghost=2, domain_size=2.0)
        for _ in range(2):
            for key in list(mesh.leaf_keys()):
                mesh.refine(key)
        pitch = mesh.domain_size / 4
        angle = math.radians(50.0)
        site = 0.9 * pitch * np.array([math.cos(angle), math.sin(angle), 0.0])
        windows = [_Window(sign * site, 0.6 * pitch) for sign in (1.0, -1.0)]
        plans, registry = HydroPlanLifecycle(), CounterRegistry()
        digests = []
        for hop in range(5):
            if hop:
                regrid(mesh, windows[(hop + 1) % 2], max_level=3)
            plan = plans.plan_for(mesh, registry, nranks=nranks)
            digests.append(_payload_digest(plan.ghosts.to_payload()))
        assert mesh.n_subgrids() == 78
        assert registry.count("plan.hydro.delta_builds") == 4
        chain = hashlib.sha256("".join(digests).encode()).hexdigest()
        assert chain == self.DIGESTS[nranks]


class _RefineOnly:
    """Refine exactly the leaf ``key``; never coarsen."""

    def __init__(self, key):
        self.key = key

    def wants_refinement(self, leaf):
        return leaf.key == self.key

    def allows_coarsening(self, leaf):
        return False


class TestUnannouncedTopologyChanges:
    def test_direct_refine_after_sim_regrid_steps_like_a_fresh_integrator(self):
        """Regression: ``sim.regrid`` once announced its delta to the face
        trace cache, and a direct ``mesh.refine`` after it went unseen —
        the next step read a stale trace and failed with a bare
        ``KeyError``.  Both changes now reach the plan as one delta from
        the topology it was built for."""
        from repro.core import OctoTigerSim
        from repro.core.crosscheck import assert_identical, clone_mesh
        from repro.scenarios.blast import sedov_blast

        blast = sedov_blast(levels=1)
        sim = OctoTigerSim(blast.mesh, eos=blast.eos, gravity=False)
        dt = 1e-4
        sim.step(dt)
        # Opposite corners of the 2x2x2 level-1 mesh: no face in common.
        assert sim.regrid(_RefineOnly((1, 0)), max_level=2).changed
        sim.mesh.refine((1, 7))
        fresh = HydroIntegrator(clone_mesh(sim.mesh), eos=blast.eos)
        sim.step(dt)
        fresh.step(dt)
        assert_identical(fresh.mesh, sim.mesh)
        assert sim.counters.count("plan.hydro.cold_builds") == 1
        assert sim.counters.count("plan.hydro.delta_builds") == 1

    def test_direct_regrid_is_a_delta_build_on_every_interpreter(self):
        """A bare :func:`regrid` on the mesh, with nothing told to the
        stepper: the serial integrator, the process executor and the DES
        driver each rebuild through the delta tier, and stay
        bit-identical.  64 leaves, so the refined mesh still fits the
        process arenas' headroom (an overflow re-forks cold)."""
        from repro.core.crosscheck import assert_identical, clone_mesh
        from repro.core.distributed import DistributedHydroDriver
        from repro.distsim.runconfig import RunConfig
        from repro.machines import FUGAKU
        from repro.scenarios.blast import sedov_blast

        blast = sedov_blast(levels=2)
        serial = HydroIntegrator(blast.mesh, eos=blast.eos)
        process = HydroIntegrator(
            clone_mesh(blast.mesh), eos=blast.eos, backend="process", nprocs=2
        )
        des = DistributedHydroDriver(
            clone_mesh(blast.mesh), eos=blast.eos,
            config=RunConfig(machine=FUGAKU, nodes=2),
        )
        serial.registry, process.registry = CounterRegistry(), CounterRegistry()
        legs = {"serial": serial, "process": process, "des": des}
        try:
            for leg in legs.values():
                leg.step(1e-4)
                assert regrid(leg.mesh, _RefineOnly((2, 0)), max_level=3).changed
                leg.step(1e-4)
        finally:
            process.close()
        for name, leg in legs.items():
            builds = {
                tier: leg.registry.count(f"plan.hydro.{tier}_builds")
                for tier in ("cold", "delta")
            }
            assert builds == {"cold": 1, "delta": 1}, name
        assert_identical(serial.mesh, process.mesh)
        assert_identical(serial.mesh, des.mesh)


class TestPlanCacheCrosscheck:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_blast_cache_hit_bit_identical(self, tmp_path, backend):
        """A second integrator over the same topology must serve its plan
        from the cache and step bit-identically to the cold-built one."""
        from repro.scenarios.blast import sedov_blast

        scenario = sedov_blast(levels=1)
        mesh_cold = scenario.mesh
        mesh_hit = sedov_blast(levels=1).mesh

        kwargs = {}
        if backend == "process":
            kwargs = {"backend": "process", "nprocs": 2}
        cold = HydroIntegrator(
            mesh_cold, eos=scenario.eos,
            plan_cache=PlanCache(tmp_path), **kwargs,
        )
        try:
            cold.step(1e-4)
        finally:
            cold.close()

        hit_cache = PlanCache(tmp_path)
        hit = HydroIntegrator(
            mesh_hit, eos=scenario.eos, plan_cache=hit_cache, **kwargs
        )
        try:
            hit.step(1e-4)
        finally:
            hit.close()
        assert hit_cache.stats.hits >= 1  # honoured on both backends
        for key in sorted(mesh_cold.leaf_keys()):
            assert np.array_equal(
                mesh_cold.nodes[key].subgrid.data,
                mesh_hit.nodes[key].subgrid.data,
            ), key

    def test_process_backend_stores_and_hits(self, tmp_path):
        """Regression: ``backend="process"`` used to accept ``plan_cache``
        and never consult it.  A process run on a fresh cache stores one
        hydro entry; a second one on the same topology is served from it
        (no cold build) and stays bit-identical to serial."""
        from repro.profiling.apex import CounterRegistry
        from repro.scenarios.blast import sedov_blast

        def run(**kwargs):
            scenario = sedov_blast(levels=1)
            integ = HydroIntegrator(scenario.mesh, eos=scenario.eos, **kwargs)
            integ.registry = CounterRegistry()
            try:
                integ.step(1e-4)
            finally:
                integ.close()
            return scenario.mesh, integ.registry

        process = dict(backend="process", nprocs=2)
        seed_cache = PlanCache(tmp_path)
        _, reg = run(plan_cache=seed_cache, **process)
        assert seed_cache.stats.stores == 1
        assert len(list(tmp_path.glob("hydro-*.npz"))) == 1
        assert reg.count("plan.hydro.cold_builds") == 1

        mesh_hit, reg = run(plan_cache=PlanCache(tmp_path), **process)
        assert reg.count("plan.hydro.cache_hit_builds") == 1
        assert reg.count("plan.hydro.cold_builds") == 0

        mesh_serial, _ = run()
        for key in sorted(mesh_serial.leaf_keys()):
            assert np.array_equal(
                mesh_serial.nodes[key].subgrid.data,
                mesh_hit.nodes[key].subgrid.data,
            ), key

    def test_crosscheck_hydro_with_plan_cache(self, tmp_path):
        """The full crosscheck battery case: blast, serial vs DES vs
        process, serial and process sharing one plan-cache directory —
        divergence raises."""
        from repro.core.crosscheck import crosscheck_hydro
        from repro.scenarios.blast import sedov_blast

        blast = sedov_blast(levels=1)
        result = crosscheck_hydro(
            blast.mesh, steps=2, nprocs=2, eos=blast.eos,
            plan_cache=tmp_path,
        )
        assert result.ok
        assert (tmp_path / "hydro").exists() or any(tmp_path.iterdir())
