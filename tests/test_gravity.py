"""Gravity: multipole algebra, kernels, FMM accuracy, conservation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gravity import (
    FmmSolver,
    project_angular_momentum,
    project_momentum,
    total_force,
    total_torque,
)
from repro.octree import Field

from tests.conftest import fill_gaussian, make_uniform_mesh
from tests.oracles.fmm import (
    LocalExpansion,
    Multipole,
    d_tensors,
    leaf_points,
    m2l,
    m2l_batch,
    p2l,
    stacked_octant_moments,
)

rng = np.random.default_rng(1234)


def random_cloud(n=20, offset=(0, 0, 0), scale=0.3, seed=0):
    r = np.random.default_rng(seed)
    pos = r.normal(size=(n, 3)) * scale + np.array(offset, dtype=float)
    mass = r.random(n) + 0.1
    return pos, mass


class TestMultipole:
    def test_from_points_monopole(self):
        pos, mass = random_cloud()
        mp = Multipole.from_points(pos, mass)
        assert mp.mass == pytest.approx(mass.sum())
        np.testing.assert_allclose(
            mp.center, (pos * mass[:, None]).sum(0) / mass.sum()
        )

    def test_zero_mass_fallback_center(self):
        mp = Multipole.from_points(np.zeros((3, 3)), np.zeros(3),
                                   fallback_center=np.array([1.0, 2.0, 3.0]))
        assert mp.mass == 0.0
        np.testing.assert_allclose(mp.center, [1, 2, 3])

    def test_moments_symmetric(self):
        pos, mass = random_cloud()
        mp = Multipole.from_points(pos, mass)
        np.testing.assert_allclose(mp.quad, mp.quad.T)
        np.testing.assert_allclose(mp.octu, mp.octu.transpose(1, 0, 2))
        np.testing.assert_allclose(mp.octu, mp.octu.transpose(2, 1, 0))

    def test_combine_matches_direct(self):
        """M2M shift identities: combining sub-cloud moments must equal the
        moments of the union computed directly."""
        pos1, m1 = random_cloud(seed=1, offset=(0.5, 0, 0))
        pos2, m2_ = random_cloud(seed=2, offset=(-0.5, 0.2, 0))
        part1 = Multipole.from_points(pos1, m1)
        part2 = Multipole.from_points(pos2, m2_)
        combined = Multipole.combine([part1, part2])
        direct = Multipole.from_points(
            np.concatenate([pos1, pos2]), np.concatenate([m1, m2_])
        )
        assert combined.mass == pytest.approx(direct.mass)
        np.testing.assert_allclose(combined.center, direct.center, atol=1e-12)
        np.testing.assert_allclose(combined.quad, direct.quad, atol=1e-10)
        np.testing.assert_allclose(combined.octu, direct.octu, atol=1e-10)

    def test_combine_empty(self):
        assert Multipole.combine([Multipole.zero()]).mass == 0.0

    def test_octant_moments_partition_mass(self):
        pos, mass = random_cloud(n=512, scale=0.1)
        om, oc, oq, oo = stacked_octant_moments(
            pos, mass, 8, np.zeros(3), 1.0
        )
        assert om.sum() == pytest.approx(mass.sum())


class TestDerivativeTensors:
    def test_d_tensor_values_on_axis(self):
        d0, d1, d2, d3 = d_tensors(np.array([2.0, 0.0, 0.0]))
        assert d0 == pytest.approx(0.5)
        np.testing.assert_allclose(d1, [-0.25, 0, 0])
        assert d2[0, 0] == pytest.approx(3 * 4 / 32 - 1 / 8)

    def test_d2_is_traceless(self):
        _, _, d2, _ = d_tensors(np.array([0.3, -0.7, 1.1]))
        assert np.trace(d2) == pytest.approx(0.0, abs=1e-12)

    def test_d3_symmetric(self):
        _, _, _, d3 = d_tensors(np.array([0.5, 0.2, -0.4]))
        np.testing.assert_allclose(d3, d3.transpose(1, 0, 2), atol=1e-13)
        np.testing.assert_allclose(d3, d3.transpose(0, 2, 1), atol=1e-13)

    def test_zero_separation_raises(self):
        with pytest.raises(ZeroDivisionError):
            d_tensors(np.zeros(3))

    def test_finite_difference_consistency(self):
        """D1 and D2 are numerical derivatives of D0 and D1."""
        x = np.array([0.8, -0.3, 0.5])
        h = 1e-6
        d0, d1, d2, _ = d_tensors(x)
        for i in range(3):
            dx = np.zeros(3)
            dx[i] = h
            d0p, d1p, _, _ = d_tensors(x + dx)
            d0m, d1m, _, _ = d_tensors(x - dx)
            assert (d0p - d0m) / (2 * h) == pytest.approx(d1[i], rel=1e-6)
            np.testing.assert_allclose((d1p - d1m) / (2 * h), d2[:, i], rtol=1e-5)


class TestM2LKernels:
    def test_point_mass_expansion_accuracy(self):
        src = Multipole(2.0, np.zeros(3), np.zeros((3, 3)), np.zeros((3, 3, 3)))
        local = m2l(src, np.array([2.0, 0.0, 0.0]), order=3)
        delta = np.array([[0.1, 0.05, -0.02]])
        phi, acc = local.evaluate(delta)
        point = np.array([2.0, 0, 0]) + delta[0]
        r = np.linalg.norm(point)
        assert phi[0] == pytest.approx(-2.0 / r, rel=1e-4)
        exact = -2.0 * point / r**3
        # The acceleration carries one fewer Taylor order than the potential;
        # bound the error relative to the dominant component.
        np.testing.assert_allclose(acc[0], exact, atol=2e-3 * np.abs(exact).max())

    def test_m2l_invalid_order(self):
        src = Multipole.zero()
        with pytest.raises(ValueError):
            m2l(src, np.ones(3), order=5)

    def test_m2l_batch_matches_scalar_m2l(self):
        pos, mass = random_cloud(n=8, offset=(3, 0, 0), scale=0.2)
        mps = [Multipole.from_points(pos[i : i + 1], mass[i : i + 1]) for i in range(8)]
        target = np.zeros(3)
        batched = m2l_batch(
            np.array([m.mass for m in mps]),
            np.stack([m.center for m in mps]),
            np.stack([m.quad for m in mps]),
            np.stack([m.octu for m in mps]),
            target,
            order=3,
        )
        sequential = LocalExpansion()
        for mp in mps:
            sequential += m2l(mp, target - mp.center, order=3)
        assert batched.l0 == pytest.approx(sequential.l0, rel=1e-12)
        np.testing.assert_allclose(batched.l1, sequential.l1, rtol=1e-12)
        np.testing.assert_allclose(batched.l2, sequential.l2, rtol=1e-12)
        np.testing.assert_allclose(batched.l3, sequential.l3, rtol=1e-12)

    def test_m2l_batch_quadrupole_improves_over_monopole(self):
        pos, mass = random_cloud(n=30, offset=(2.5, 0.3, -0.1), scale=0.25, seed=9)
        mp = Multipole.from_points(pos, mass)
        target = np.zeros(3)
        exact_phi = -np.sum(mass / np.linalg.norm(pos, axis=1))
        errs = []
        for order in (1, 2, 3):
            local = m2l(mp, target - mp.center, order=order)
            phi, _ = local.evaluate(np.zeros((1, 3)))
            errs.append(abs(phi[0] - exact_phi))
        assert errs[1] < errs[0]
        assert errs[2] <= errs[1] * 1.5  # octupole at least doesn't regress

    def test_p2l_exact_sources(self):
        pos, mass = random_cloud(n=50, offset=(2, 1, 0), scale=0.3, seed=3)
        local = p2l(pos, mass, np.zeros(3))
        phi, acc = local.evaluate(np.zeros((1, 3)))
        r = np.linalg.norm(pos, axis=1)
        exact_phi = -np.sum(mass / r)
        exact_acc = -np.einsum("n,ni->i", mass / r**3, -pos)
        assert phi[0] == pytest.approx(exact_phi, rel=1e-12)
        np.testing.assert_allclose(acc[0], -exact_acc * -1.0, rtol=1e-12)

    def test_p2l_coincident_raises(self):
        with pytest.raises(ZeroDivisionError):
            p2l(np.zeros((1, 3)), np.ones(1), np.zeros(3))


class TestLocalExpansion:
    def test_shift_consistency(self):
        """Evaluating a shifted expansion at 0 equals evaluating the
        original at the shift."""
        src = Multipole(1.5, np.zeros(3), np.zeros((3, 3)), np.zeros((3, 3, 3)))
        local = m2l(src, np.array([3.0, 0.5, -0.2]))
        d = np.array([0.05, -0.03, 0.08])
        shifted = local.shifted(d)
        phi_direct, acc_direct = local.evaluate(d[None, :])
        phi_shift, acc_shift = shifted.evaluate(np.zeros((1, 3)))
        assert phi_shift[0] == pytest.approx(phi_direct[0], rel=1e-10)
        np.testing.assert_allclose(acc_shift[0], acc_direct[0], rtol=1e-6)

    def test_iadd_accumulates(self):
        a = LocalExpansion(1.0, np.ones(3), np.ones((3, 3)), np.ones((3, 3, 3)))
        b = LocalExpansion(2.0, np.ones(3), np.ones((3, 3)), np.ones((3, 3, 3)))
        a += b
        assert a.l0 == 3.0
        assert (a.l1 == 2.0).all()


class TestFmmAccuracy:
    def test_matches_direct_sum(self, gaussian_mesh_l2, direct_reference):
        phi_d, acc_d = direct_reference
        result = FmmSolver(order=3).solve(gaussian_mesh_l2)
        num = np.sum((result.accel_slots - acc_d) ** 2)
        assert np.sqrt(num / np.sum(acc_d**2)) < 1e-2
        pnum = np.sum((result.phi_slots - phi_d) ** 2)
        assert np.sqrt(pnum / np.sum(phi_d**2)) < 1e-3

    def test_pure_p2p_exact_on_level1(self):
        mesh = make_uniform_mesh(levels=1)
        fill_gaussian(mesh)
        result = FmmSolver(
            order=3, momentum_correction=False, angmom_correction=False
        ).solve(mesh)
        from repro.gravity import direct_sum

        phi_d, acc_d = direct_sum(mesh)
        np.testing.assert_allclose(result.phi_slots, phi_d, atol=1e-12)
        np.testing.assert_allclose(result.accel_slots, acc_d, atol=1e-12)
        assert result.stats.m2l_pairs == 0 and result.stats.near_pairs == 0

    def test_interaction_stats_populated(self, gaussian_mesh_l2):
        result = FmmSolver().solve(gaussian_mesh_l2)
        stats = result.stats
        assert stats.p2m == 64
        assert stats.m2m == 9  # 8 level-1 interiors + root
        assert stats.p2p_pairs > 0
        assert stats.near_pairs > 0
        assert stats.m2l_pairs > 0

    def test_result_shapes(self, gaussian_mesh_l2):
        result = FmmSolver().solve(gaussian_mesh_l2)
        for leaf in gaussian_mesh_l2.leaves():
            assert result.phi[leaf.key].shape == (8, 8, 8)
            assert result.accel[leaf.key].shape == (3, 8, 8, 8)

    def test_attractive_toward_blob(self, gaussian_mesh_l2):
        result = FmmSolver().solve(gaussian_mesh_l2)
        # A far cell's acceleration points roughly towards the blob centre.
        far_leaf = min(
            gaussian_mesh_l2.leaves(),
            key=lambda l: -np.linalg.norm(l.center - np.array([0.2, -0.1, 0.0])),
        )
        a = result.accel[far_leaf.key][:, 4, 4, 4]
        to_blob = np.array([0.2, -0.1, 0.0]) - far_leaf.center
        assert np.dot(a, to_blob) > 0

    def test_empty_mass_threshold_skips_work(self, gaussian_mesh_l2):
        eager = FmmSolver(momentum_correction=False, angmom_correction=False)
        lazy = FmmSolver(
            momentum_correction=False,
            angmom_correction=False,
            empty_mass_threshold=1e30,  # everything counts as empty
        )
        r1 = eager.solve(gaussian_mesh_l2)
        r2 = lazy.solve(gaussian_mesh_l2)
        # With every source 'empty', P2P contributes nothing.
        assert max(np.abs(r2.phi[k]).max() for k in r2.phi) < max(
            np.abs(r1.phi[k]).max() for k in r1.phi
        )


class TestConservationProjections:
    """The projections on the slot stacks: ``mass (L, nc)``, ``pos (L, nc,
    3)`` and ``accel (L, 3, nc)`` (a view of the solve's ``accel_slots``,
    the solver's own layout)."""

    @staticmethod
    def points(mesh):
        leaves = sorted(mesh.leaves(), key=lambda leaf: leaf.key)
        pos, mass = zip(*(leaf_points(leaf) for leaf in leaves))
        return np.stack(mass), np.stack(pos)

    def make_field(self, gaussian_mesh_l2):
        solver = FmmSolver(momentum_correction=False, angmom_correction=False)
        result = solver.solve(gaussian_mesh_l2)
        mass, pos = self.points(gaussian_mesh_l2)
        return mass, pos, result.accel_slots.reshape(len(mass), 3, -1)

    def test_momentum_projection_zeroes_force(self, gaussian_mesh_l2):
        mass, pos, accel = self.make_field(gaussian_mesh_l2)
        project_momentum(mass, accel)
        force = total_force(mass, accel)
        assert np.abs(force).max() / mass.sum() < 1e-13

    def test_angmom_projection_zeroes_torque(self, gaussian_mesh_l2):
        mass, pos, accel = self.make_field(gaussian_mesh_l2)
        project_angular_momentum(mass, pos, accel)
        torque = np.abs(total_torque(mass, pos, accel))
        assert torque.max() < 1e-13

    def test_projections_commute_on_invariants(self, gaussian_mesh_l2):
        mass, pos, accel = self.make_field(gaussian_mesh_l2)
        project_momentum(mass, accel)
        project_angular_momentum(mass, pos, accel)
        # Angular projection must not reintroduce net force and vice versa.
        assert np.abs(total_force(mass, accel)).max() < 1e-13
        com = sum(m @ p for m, p in zip(mass, pos)) / mass.sum()
        assert np.abs(total_torque(mass, pos, accel, about=com)).max() < 1e-13

    def test_solver_applies_corrections(self, gaussian_mesh_l2):
        result = FmmSolver().solve(gaussian_mesh_l2)
        mass, pos = self.points(gaussian_mesh_l2)
        accel = result.accel_slots.reshape(len(mass), 3, -1)
        assert np.abs(total_force(mass, accel)).max() < 1e-12
        assert np.abs(total_torque(mass, pos, accel)).max() < 1e-12

    def test_correction_magnitude_is_small(self, gaussian_mesh_l2):
        """The projection must be a perturbation, not a rewrite."""
        mass, pos, accel = self.make_field(gaussian_mesh_l2)
        before = accel.copy()
        project_momentum(mass, accel)
        project_angular_momentum(mass, pos, accel)
        rel = max(
            np.abs(a - b).max() / (np.abs(b).max() + 1e-30)
            for a, b in zip(accel, before)
        )
        assert rel < 1e-3

    def test_zero_mass_system(self):
        mass = np.zeros((1, 4))
        accel = np.ones((1, 3, 4))
        assert (project_momentum(mass, accel) == 0).all()
        assert (accel == 1.0).all()
