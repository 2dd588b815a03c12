"""The coalescing layer: bundle plans, closed-form message counts, and
bit-identical physics with or without the exchange on the wire.

The load-bearing claims, in test form:

* a bundle-planned ghost exchange writes the exact bits of the reference
  ``fill_all_ghosts`` pass;
* a coalesced step sends exactly ``len(_RK3_STAGES)`` payload messages per
  remote neighbor-locality pair — O(neighbor localities), not
  O(leaf faces) — and the pair set matches the closed form from the mesh
  topology alone, across arbitrary regrid sequences (hypothesis);
* the coalesced driver's state is ``np.array_equal``-identical to the
  serial integrator's (no exchange on any wire).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.comms import (
    GhostBundlePlan,
    adopt_arena,
    build_bundle_plan,
    neighbor_locality_pairs,
)
from repro.core.distributed import DistributedHydroDriver
from repro.distsim import RunConfig
from repro.hydro import HydroIntegrator, IdealGasEOS, build_hydro_plan
from repro.hydro.integrator import _RK3_STAGES
from repro.machines import FUGAKU
from repro.octree import AmrMesh, Field
from repro.octree.partition import sfc_partition

from tests.oracles.ghost import fill_all_ghosts
from tests.test_distributed_driver import build_mesh, clone


def seeded_fields(mesh, seed=0):
    """Distinct, reproducible values in every cell of every field."""
    rng = np.random.default_rng(seed)
    for leaf in mesh.leaves():
        interior = leaf.subgrid.interior_view()
        rho = 1.0 + rng.random(interior.shape[1:])
        eint = 2.0 + rng.random(interior.shape[1:])
        leaf.subgrid.set_interior(Field.RHO, rho)
        leaf.subgrid.set_interior(Field.SX, 0.1 * rng.random(rho.shape) * rho)
        leaf.subgrid.set_interior(Field.EGAS, eint)
        leaf.subgrid.set_interior(Field.TAU, eint ** (3.0 / 5.0))
    mesh.restrict_all()


class TestBundlePlanEquivalence:
    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_apply_matches_reference_fill(self, adaptive, nodes):
        mesh_a, _ = build_mesh(adaptive=adaptive)
        mesh_b = clone(mesh_a)
        sfc_partition(mesh_a, nodes)
        locality = sfc_partition(mesh_b, nodes)

        fill_all_ghosts(mesh_a)

        arena, offsets = adopt_arena(mesh_b)
        plan = build_bundle_plan(mesh_b, offsets, locality)
        for bundle in plan.bundles.values():
            bundle.apply(arena)

        for key in mesh_a.leaf_keys():
            assert np.array_equal(
                mesh_b.nodes[key].subgrid.data, mesh_a.nodes[key].subgrid.data
            )

    def test_arena_adoption_preserves_values(self):
        mesh, _ = build_mesh(adaptive=True)
        before = {
            key: mesh.nodes[key].subgrid.data.copy()
            for key in mesh.leaf_keys()
        }
        arena, offsets = adopt_arena(mesh)
        for key, data in before.items():
            assert np.array_equal(mesh.nodes[key].subgrid.data, data)
        # The rebinding is real: leaf storage aliases the arena.
        leaf = mesh.nodes[next(iter(offsets))]
        assert leaf.subgrid.data.base is arena

    def test_plan_matches_topology_version(self):
        mesh, _ = build_mesh()
        plan = build_hydro_plan(mesh, nranks=2)
        assert plan.matches(mesh)
        mesh.refine((1, 1))
        assert not plan.matches(mesh)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(picks=st.lists(st.integers(min_value=0, max_value=63), max_size=3))
    def test_one_plan_for_any_rank_count(self, picks):
        """On refined meshes the one-rank plan is a single bundle whose
        apply writes the exact bits of ``fill_all_ghosts``; for any rank
        count the pair bundles' scatter indices partition that same ghost
        set — every ghost cell written exactly once."""
        mesh_a, _ = build_mesh()
        for pick in picks:
            leaves = [k for k in mesh_a.leaf_keys() if k[0] < 3]
            mesh_a.refine(leaves[pick % len(leaves)])
        seeded_fields(mesh_a)
        mesh_b = clone(mesh_a)
        sfc_partition(mesh_b, 4)  # leaf.locality must not split the plan

        fill_all_ghosts(mesh_a)
        plan = build_hydro_plan(mesh_b)
        assert list(plan.ghosts.bundles) == [(0, 0)]
        plan.ghosts.bundles[(0, 0)].apply(plan.arena)
        for key in mesh_a.leaf_keys():
            assert np.array_equal(
                mesh_b.nodes[key].subgrid.data, mesh_a.nodes[key].subgrid.data
            )

        def scatter_set(ghosts):
            return np.sort(np.concatenate([
                idx for b in ghosts.bundles.values()
                for idx in (b.copy_dst, b.fine_dst)
            ]))

        one_rank = scatter_set(plan.ghosts)
        assert np.unique(one_rank).size == one_rank.size
        for nranks in (2, 3):
            split = build_hydro_plan(mesh_b, nranks=nranks)
            assert np.array_equal(scatter_set(split.ghosts), one_rank)


class TestClosedFormMessageCounts:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        picks=st.lists(st.integers(min_value=0, max_value=63), max_size=3),
        nodes=st.integers(min_value=2, max_value=5),
    )
    def test_remote_pairs_match_closed_form_across_regrids(self, picks, nodes):
        """Whatever the regrid sequence, the plan's remote pair set equals
        the closed form walked from the topology alone, and the per-step
        payload message count is stages x pairs."""
        mesh, eos = build_mesh()
        for pick in picks:  # a regrid sequence: refine some leaf each time
            leaves = [k for k in mesh.leaf_keys() if k[0] < 3]
            if not leaves:
                break
            mesh.refine(leaves[pick % len(leaves)])
        seeded_fields(mesh)
        driver = DistributedHydroDriver(
            mesh, eos, config=RunConfig(machine=FUGAKU, nodes=nodes)
        )
        result = driver.step(1e-4)
        sfc_partition(mesh, nodes)  # the driver's map, onto leaf.locality
        pairs = neighbor_locality_pairs(mesh)
        assert driver.plans.plan.ghosts.remote_pairs == pairs
        assert result.messages == len(_RK3_STAGES) * len(pairs)

    def test_coalescing_cuts_messages_to_pair_count(self):
        """O(leaf faces) -> O(neighbor localities): the headline claim.

        The per-face count is the closed form a message-per-face exchange
        sends: one per stage per leaf face with an off-locality donor."""
        mesh, eos = build_mesh(adaptive=True)
        on = DistributedHydroDriver(
            mesh, eos, config=RunConfig(machine=FUGAKU, nodes=4)
        ).step(1e-3)
        sfc_partition(mesh, 4)  # the driver's map, onto leaf.locality
        pairs = neighbor_locality_pairs(mesh)
        assert on.messages == len(_RK3_STAGES) * len(pairs)
        remote_faces = 0
        for leaf in mesh.leaves():
            for axis in range(3):
                for side in (0, 1):
                    kind, other = mesh.face_neighbor(leaf, axis, side)
                    donors = {"same": [other], "coarse": [other],
                              "fine": other}.get(kind, [])
                    remote_faces += any(
                        d.locality != leaf.locality for d in donors
                    )
        assert len(_RK3_STAGES) * remote_faces > 3 * on.messages


class TestBitIdenticalOnOff:
    """"On" is the coalesced exchange over the virtual network; "off" is
    the serial integrator, which exchanges nothing."""

    def _run(self, on, steps=2):
        mesh, eos = build_mesh(adaptive=True)
        seeded_fields(mesh, seed=7)
        if on:
            driver = DistributedHydroDriver(
                mesh, eos, config=RunConfig(machine=FUGAKU, nodes=4),
            )
        else:
            driver = HydroIntegrator(mesh, eos)
        for _ in range(steps):
            driver.step(5e-4)
        return {k: mesh.nodes[k].subgrid.data.copy() for k in mesh.leaf_keys()}

    def test_on_off_identical_clean(self):
        on = self._run(on=True)
        off = self._run(on=False)
        assert on.keys() == off.keys()
        for key in on:
            assert np.array_equal(on[key], off[key])


class TestBundlePlanShape:
    def test_bundle_count_is_pair_count(self):
        mesh, _ = build_mesh(adaptive=True)
        locality = sfc_partition(mesh, 4)
        arena, offsets = adopt_arena(mesh)
        plan = build_bundle_plan(mesh, offsets, locality)
        assert isinstance(plan, GhostBundlePlan)
        remote = [b for b in plan.bundles.values() if not b.local]
        assert len(remote) == len(neighbor_locality_pairs(mesh))

    def test_payload_bytes_accounted(self):
        mesh, _ = build_mesh()
        locality = sfc_partition(mesh, 4)
        arena, offsets = adopt_arena(mesh)
        plan = build_bundle_plan(mesh, offsets, locality)
        for bundle in plan.bundles.values():
            assert bundle.nbytes == bundle.payload.size * 8
        # Every face transfer is a member of exactly one bundle (this
        # uniform mesh has no fine faces, which would count per child).
        assert sum(b.n_faces for b in plan.bundles.values()) == 6 * len(
            mesh.leaves()
        )
        assert plan.remote_payload_bytes == sum(
            b.nbytes for b in plan.bundles.values() if not b.local
        )
