"""Distributed functional execution vs the serial integrator.

The strongest test in the suite: the same step program, executed as a
distributed task graph with ghost messages and anti-dependencies, must
produce the same bits as the serial integrator — with reflux, gravity and
a regrid between steps.
"""

import numpy as np
import pytest

from repro.core.distributed import DistributedHydroDriver
from repro.distsim import RunConfig
from repro.hydro import HydroIntegrator, IdealGasEOS
from repro.machines import FUGAKU, OOKAMI
from repro.octree import AmrMesh, Field
from repro.octree.partition import sfc_assignment


def build_mesh(adaptive=False):
    eos = IdealGasEOS()
    mesh = AmrMesh(n=8, ghost=2, domain_size=2.0)
    mesh.refine((0, 0))
    if adaptive:
        mesh.refine((1, 0))
    for leaf in mesh.leaves():
        x, y, z = leaf.cell_centers()
        rho = 1.0 + 0.4 * np.exp(-((x + 0.3) ** 2 + y**2 + z**2) / 0.1)
        eint = np.full_like(rho, 2.5)
        leaf.subgrid.set_interior(Field.RHO, rho)
        leaf.subgrid.set_interior(Field.SX, 0.05 * rho * np.cos(np.pi * y))
        leaf.subgrid.set_interior(Field.EGAS, eint + 0.00125 * rho * np.cos(np.pi * y) ** 2)
        leaf.subgrid.set_interior(Field.TAU, eos.tau_from_eint(eint))
    mesh.restrict_all()
    return mesh, eos


def assert_same_bits(mesh_a, mesh_b):
    assert sorted(mesh_a.leaf_keys()) == sorted(mesh_b.leaf_keys())
    for key in mesh_a.leaf_keys():
        assert np.array_equal(
            mesh_b.nodes[key].subgrid.interior_view(),
            mesh_a.nodes[key].subgrid.interior_view(),
        ), key


def clone(mesh):
    from repro.octree.node import OctreeNode

    out = AmrMesh(n=mesh.n, ghost=mesh.ghost, domain_size=mesh.domain_size)
    out.nodes.clear()
    for key, node in mesh.nodes.items():
        copy = OctreeNode(key[0], key[1], n=mesh.n, ghost=mesh.ghost,
                          domain_size=mesh.domain_size)
        copy.is_leaf = node.is_leaf
        np.copyto(copy.subgrid.data, node.subgrid.data)
        out.nodes[key] = copy
    return out


class TestEquivalenceWithSerial:
    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_uniform_mesh_identical_fields(self, nodes):
        mesh_a, eos = build_mesh()
        mesh_b = clone(mesh_a)
        dt = 1e-3

        serial = HydroIntegrator(mesh_a, eos)
        serial.step(dt)

        driver = DistributedHydroDriver(
            mesh_b, eos, config=RunConfig(machine=FUGAKU, nodes=nodes)
        )
        driver.step(dt)

        assert_same_bits(mesh_a, mesh_b)

    def test_adaptive_mesh_identical_fields(self):
        mesh_a, eos = build_mesh(adaptive=True)
        mesh_b = clone(mesh_a)
        dt = 5e-4
        HydroIntegrator(mesh_a, eos).step(dt)
        DistributedHydroDriver(
            mesh_b, eos, config=RunConfig(machine=FUGAKU, nodes=3)
        ).step(dt)
        assert_same_bits(mesh_a, mesh_b)

    def test_rotating_frame_matches_serial(self):
        mesh_a, eos = build_mesh()
        mesh_b = clone(mesh_a)
        dt = 1e-3
        HydroIntegrator(mesh_a, eos, omega=0.3).step(dt)
        DistributedHydroDriver(
            mesh_b, eos, omega=0.3, config=RunConfig(machine=FUGAKU, nodes=2)
        ).step(dt)
        assert_same_bits(mesh_a, mesh_b)

    def test_multi_step_stays_identical(self):
        mesh_a, eos = build_mesh()
        mesh_b = clone(mesh_a)
        serial = HydroIntegrator(mesh_a, eos)
        driver = DistributedHydroDriver(
            mesh_b, eos, config=RunConfig(machine=FUGAKU, nodes=2)
        )
        for _ in range(3):
            serial.step(1e-3)
            driver.step(1e-3)
        assert_same_bits(mesh_a, mesh_b)


    def test_survives_foreign_adoption_between_steps(self):
        """Anything else adopting the mesh's leaf storage between two
        steps (here a serial integrator asking for its plan) must make the
        driver re-adopt, not keep updating a dead arena."""
        mesh_a, eos = build_mesh(adaptive=True)
        mesh_b = clone(mesh_a)
        serial = HydroIntegrator(mesh_a, eos)
        driver = DistributedHydroDriver(
            mesh_b, eos, config=RunConfig(machine=FUGAKU, nodes=2)
        )
        serial.step(1e-3)
        driver.step(1e-3)
        stale = driver.plans.plan
        HydroIntegrator(mesh_b, eos).plan_for()  # rebinds mesh_b's leaves
        assert not stale.matches(mesh_b)
        serial.step(1e-3)
        driver.step(1e-3)
        assert driver.plans.plan is not stale
        assert_same_bits(mesh_a, mesh_b)

    @pytest.mark.parametrize("nodes", [1, 2, 3, 4])
    def test_adaptive_reflux_matches_serial(self, nodes):
        """Coarse-fine faces: the reflux join corrects every coarse face
        once, by its owner, exactly as the serial integrator does."""
        mesh_a, eos = build_mesh(adaptive=True)
        mesh_b = clone(mesh_a)
        serial = HydroIntegrator(mesh_a, eos)
        driver = DistributedHydroDriver(
            mesh_b, eos, config=RunConfig(machine=FUGAKU, nodes=nodes)
        )
        for _ in range(2):
            serial.step(5e-4)
            driver.step(5e-4)
        assert driver.faces_refluxed == serial.faces_refluxed > 0
        assert_same_bits(mesh_a, mesh_b)

    def test_regrid_between_steps_repartitions(self):
        """After a regrid the plan is the SFC partition of the live
        topology, not the localities refined children inherited."""
        mesh_a, eos = build_mesh()
        mesh_b = clone(mesh_a)
        nodes = 4
        serial = HydroIntegrator(mesh_a, eos)
        driver = DistributedHydroDriver(
            mesh_b, eos, config=RunConfig(machine=FUGAKU, nodes=nodes)
        )
        serial.step(5e-4)
        driver.step(5e-4)
        for mesh in (mesh_a, mesh_b):
            mesh.refine((1, 0))
            mesh.refine((1, 7))
        serial.step(5e-4)
        driver.step(5e-4)
        plan = driver.plans.plan
        live = sfc_assignment(mesh_b, nodes)
        assert plan.rank_of.tolist() == [live[k] for k in plan.leaf_keys]
        assert_same_bits(mesh_a, mesh_b)

    def test_star_with_fmm_gravity_matches_serial(self):
        from repro.gravity.fmm import FmmSolver
        from repro.scenarios import rotating_star

        star = rotating_star(level=1)
        mesh_a = star.mesh
        mesh_b = clone(mesh_a)

        def gravity():
            return FmmSolver(empty_mass_threshold=1e-12)

        serial = HydroIntegrator(
            mesh_a, star.eos, omega=star.omega, gravity=gravity()
        )
        driver = DistributedHydroDriver(
            mesh_b, star.eos, omega=star.omega, gravity=gravity(),
            config=RunConfig(machine=FUGAKU, nodes=2),
        )
        dt = serial.timestep()
        serial.step(dt)
        driver.step(dt)
        assert_same_bits(mesh_a, mesh_b)


class TestDistributionMechanics:
    def test_single_locality_sends_nothing(self):
        mesh, eos = build_mesh()
        driver = DistributedHydroDriver(
            mesh, eos, config=RunConfig(machine=FUGAKU, nodes=1)
        )
        result = driver.step(1e-3)
        assert result.messages == 0
        assert result.tasks_completed > 0

    def test_multi_locality_sends_ghosts(self):
        mesh, eos = build_mesh()
        driver = DistributedHydroDriver(
            mesh, eos, config=RunConfig(machine=FUGAKU, nodes=4)
        )
        result = driver.step(1e-3)
        assert result.messages > 0
        assert result.bytes_sent > 0

    def test_comm_optimization_reduces_messages(self):
        mesh_a, eos = build_mesh()
        mesh_b = clone(mesh_a)
        on = DistributedHydroDriver(
            mesh_a, eos,
            config=RunConfig(machine=OOKAMI, nodes=2, comm_local_optimization=True),
        ).step(1e-3)
        off = DistributedHydroDriver(
            mesh_b, eos,
            config=RunConfig(machine=OOKAMI, nodes=2, comm_local_optimization=False),
        ).step(1e-3)
        assert on.messages < off.messages

    def test_makespan_shrinks_with_localities(self):
        times = []
        for nodes in (1, 4):
            mesh, eos = build_mesh()
            driver = DistributedHydroDriver(
                mesh, eos, config=RunConfig(machine=FUGAKU, nodes=nodes)
            )
            times.append(driver.step(1e-3).makespan_s)
        assert times[1] < times[0]

    def test_bookkeeping(self):
        mesh, eos = build_mesh()
        driver = DistributedHydroDriver(
            mesh, eos, config=RunConfig(machine=FUGAKU, nodes=2)
        )
        driver.step(2e-3)
        assert driver.time == pytest.approx(2e-3)
        assert driver.steps_taken == 1
        assert driver.last_result is not None
        assert 0 < driver.last_result.utilization <= 1
