"""Ghost-layer exchange: same-level, coarse-fine, boundaries, plan."""

import numpy as np
import pytest

from repro.octree import AmrMesh, Field
from repro.octree.ghost import exchange_plan
from repro.octree.partition import sfc_partition
from repro.util.morton import morton_encode3

from tests.conftest import make_uniform_mesh
from tests.oracles.ghost import fill_all_ghosts, fill_leaf_ghosts


def set_linear(mesh, a=2.0, bx=3.0, by=-1.0, bz=0.5):
    for leaf in mesh.leaves():
        x, y, z = leaf.cell_centers()
        leaf.subgrid.set_interior(Field.RHO, a + bx * x + by * y + bz * z)
    mesh.restrict_all()


def face_band(leaf, axis, side, field=Field.RHO):
    sg = leaf.subgrid
    return sg.data[(field,) + sg.ghost_slices(axis, side)]


class TestUniformMesh:
    def test_constant_field_fills_all_faces(self):
        mesh = make_uniform_mesh(levels=2)
        for leaf in mesh.leaves():
            leaf.subgrid.set_interior(Field.RHO, np.ones((8, 8, 8)))
        fill_all_ghosts(mesh)
        for leaf in mesh.leaves():
            for axis in range(3):
                for side in (0, 1):
                    assert np.allclose(face_band(leaf, axis, side), 1.0)

    def test_same_level_exchange_exact_for_linear_field(self):
        mesh = make_uniform_mesh(levels=2)
        set_linear(mesh)
        fill_all_ghosts(mesh)
        # Interior leaves' ghosts must continue the linear profile exactly.
        leaf = mesh.nodes[(2, morton_encode3(1, 1, 1))]
        x, y, z = leaf.cell_centers()
        dx = leaf.dx
        band = face_band(leaf, 0, 1)
        # Ghost cells extend +dx, +2dx beyond the interior along x.
        for g in range(2):
            expected = 2.0 + 3.0 * (x[-1, :, :] + (g + 1) * dx) - 1.0 * y[-1, :, :] + 0.5 * z[-1, :, :]
            np.testing.assert_allclose(band[g], expected, rtol=1e-12)

    def test_boundary_outflow_replicates_edge(self):
        mesh = make_uniform_mesh(levels=1)
        set_linear(mesh)
        fill_all_ghosts(mesh)
        corner = mesh.nodes[(1, 0)]
        band = face_band(corner, 0, 0)
        edge = corner.subgrid.interior_view(Field.RHO)[0]
        np.testing.assert_allclose(band[0], edge)
        np.testing.assert_allclose(band[1], edge)

    def test_all_fields_exchanged(self):
        mesh = make_uniform_mesh(levels=1)
        for f in Field:
            for leaf in mesh.leaves():
                leaf.subgrid.set_interior(f, np.full((8, 8, 8), float(f) + 1.0))
        fill_all_ghosts(mesh)
        leaf = mesh.nodes[(1, 0)]
        for f in Field:
            sg = leaf.subgrid
            band = sg.data[(f,) + sg.ghost_slices(0, 1)]
            assert np.allclose(band, float(f) + 1.0)


class TestAmrBoundaries:
    def make_two_level(self):
        mesh = AmrMesh()
        mesh.refine((0, 0))
        mesh.refine((1, 0))  # corner refined to level 2
        return mesh

    def test_constant_across_coarse_fine(self):
        mesh = self.make_two_level()
        for leaf in mesh.leaves():
            leaf.subgrid.set_interior(Field.RHO, np.ones((8, 8, 8)))
        mesh.restrict_all()
        fill_all_ghosts(mesh)
        for leaf in mesh.leaves():
            for axis in range(3):
                for side in (0, 1):
                    band = face_band(leaf, axis, side)
                    assert np.allclose(band, 1.0), (leaf.key, axis, side)

    def test_fine_to_coarse_is_conservative_average(self):
        mesh = self.make_two_level()
        rng = np.random.default_rng(7)
        for leaf in mesh.leaves():
            leaf.subgrid.set_interior(Field.RHO, rng.random((8, 8, 8)))
        mesh.restrict_all()
        coarse = mesh.nodes[(1, morton_encode3(1, 0, 0))]
        fill_leaf_ghosts(mesh, coarse)
        kind, children = mesh.face_neighbor(coarse, 0, 0)
        assert kind == "fine"
        band = face_band(coarse, 0, 0)
        # The nearest ghost layer equals the 2x2x2 average of the children's
        # nearest two interior layers: check the total (conservation proxy).
        child_sum = sum(
            c.subgrid.interior_view(Field.RHO)[-4:, :, :].sum() for c in children
        )
        assert band.sum() * 8.0 == pytest.approx(child_sum, rel=1e-12)

    def test_coarse_to_fine_prolongation_constant_blocks(self):
        mesh = self.make_two_level()
        for leaf in mesh.leaves():
            x, _, _ = leaf.cell_centers()
            leaf.subgrid.set_interior(Field.RHO, np.where(x > 0, 5.0, 2.0))
        mesh.restrict_all()
        fine = mesh.nodes[(2, morton_encode3(1, 0, 0))]
        fill_leaf_ghosts(mesh, fine)
        kind, _ = mesh.face_neighbor(fine, 0, 1)
        assert kind == "coarse"
        band = face_band(fine, 0, 1)
        # Piecewise-constant prolongation: 2x2 fine ghost cells share one
        # coarse value.
        assert np.allclose(band[:, 0::2, :], band[:, 1::2, :])
        assert np.allclose(band[:, :, 0::2], band[:, :, 1::2])


class TestExchangePlan:
    def test_counts_uniform(self):
        mesh = make_uniform_mesh(levels=1)
        plan = exchange_plan(mesh)
        # 8 leaves x 6 faces: 24 boundary, 24 same-level transfers.
        assert len(plan) == 48
        kinds = [p.kind for p in plan]
        assert kinds.count("boundary") == 24
        assert kinds.count("same") == 24

    def test_bytes_positive_for_transfers(self):
        mesh = make_uniform_mesh(levels=1)
        for ex in exchange_plan(mesh):
            if ex.kind == "boundary":
                assert ex.size_bytes == 0
            else:
                assert ex.size_bytes > 0

    def test_locality_flags_follow_partition(self):
        mesh = make_uniform_mesh(levels=2)
        sfc_partition(mesh, 4)
        plan = exchange_plan(mesh)
        remote = [p for p in plan if p.src is not None and not p.same_locality]
        local = [p for p in plan if p.src is not None and p.same_locality]
        assert remote and local
        for ex in remote:
            assert mesh.nodes[ex.dst].locality != mesh.nodes[ex.src].locality

    def test_fine_entries_quartered(self):
        mesh = AmrMesh()
        mesh.refine((0, 0))
        mesh.refine((1, 0))
        plan = exchange_plan(mesh)
        fine_entries = [p for p in plan if p.kind == "fine"]
        assert fine_entries
        full = mesh.nodes[(1, 1)].subgrid.nbytes_face()
        assert all(p.size_bytes == full // 4 for p in fine_entries)


class TestPartition:
    def test_all_leaves_assigned_contiguously(self):
        mesh = make_uniform_mesh(levels=2)
        assignment = sfc_partition(mesh, 4)
        assert set(assignment.values()) == {0, 1, 2, 3}
        # SFC order must be monotone in locality.
        from repro.octree.partition import sfc_key

        max_level = mesh.max_level()
        ordered = sorted(mesh.leaves(), key=lambda nd: sfc_key(nd, max_level))
        locs = [leaf.locality for leaf in ordered]
        assert locs == sorted(locs)

    def test_balance(self):
        from repro.octree.partition import partition_stats

        mesh = make_uniform_mesh(levels=2)
        sfc_partition(mesh, 4)
        stats = partition_stats(mesh, 4)
        assert stats.subgrids_per_locality == [16, 16, 16, 16]
        assert stats.imbalance == pytest.approx(1.0)
        assert 0.0 < stats.remote_fraction < 1.0

    def test_weighted_partition(self):
        mesh = make_uniform_mesh(levels=1)
        weights = {key: (10.0 if key == (1, 0) else 1.0) for key in mesh.leaf_keys()}
        sfc_partition(mesh, 2, weights=weights)
        counts = [0, 0]
        for leaf in mesh.leaves():
            counts[leaf.locality] += 1
        # The heavy first leaf pushes most others to locality 1.
        assert counts[0] < counts[1]

    def test_single_locality(self):
        mesh = make_uniform_mesh(levels=1)
        sfc_partition(mesh, 1)
        assert all(leaf.locality == 0 for leaf in mesh.leaves())

    def test_interior_nodes_follow_children(self):
        mesh = make_uniform_mesh(levels=2)
        sfc_partition(mesh, 4)
        for node in mesh.nodes.values():
            if not node.is_leaf:
                first_child = mesh.nodes[node.children_keys()[0]]
                assert node.locality == first_child.locality

    def test_invalid_counts(self):
        mesh = make_uniform_mesh(levels=1)
        with pytest.raises(ValueError):
            sfc_partition(mesh, 0)
        with pytest.raises(ValueError):
            sfc_partition(mesh, 2, weights={mesh.leaf_keys()[0]: -1.0})
