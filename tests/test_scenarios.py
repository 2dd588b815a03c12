"""Scenario builders and workload specs."""

import numpy as np
import pytest

from repro.octree import Field
from repro.scenarios import (
    DWD_CELLS,
    ROTATING_STAR_LEVELS,
    ScenarioSpec,
    V1309_CELLS,
    dwd_scenario,
    rotating_star,
    v1309_scenario,
    workload_from_mesh,
)


class TestSpec:
    def test_cells_and_memory(self):
        spec = ScenarioSpec(name="x", n_subgrids=1000, max_level=5)
        assert spec.n_cells == 512_000
        assert spec.memory_bytes == 1000 * spec.bytes_per_subgrid

    def test_face_bytes(self):
        spec = ScenarioSpec(name="x", n_subgrids=1, max_level=1)
        assert spec.face_bytes == 8 * 2 * 64 * 8  # NFIELDS * ghost * n^2 * 8

    def test_min_nodes_power_of_two(self):
        from repro.distsim.sweep import min_nodes_for
        from repro.machines import FUGAKU

        spec = ScenarioSpec(name="x", n_subgrids=100_000, max_level=8)
        nodes = min_nodes_for(spec, FUGAKU)
        assert nodes & (nodes - 1) == 0  # power of two
        assert nodes * FUGAKU.node.memory_gb * 1e9 >= spec.memory_bytes

    def test_with_subgrids(self):
        spec = ScenarioSpec(name="x", n_subgrids=10, max_level=2)
        assert spec.with_subgrids(20).n_subgrids == 20
        assert spec.with_subgrids(20).name == "x"


class TestPaperScaleSpecs:
    def test_rotating_star_levels(self):
        assert ROTATING_STAR_LEVELS[5] == 2_500_000
        assert ROTATING_STAR_LEVELS[6] == 14_200_000
        assert ROTATING_STAR_LEVELS[7] == 88_600_000
        for level in (5, 6, 7):
            scenario = rotating_star(level=level, build_mesh=False)
            assert scenario.mesh is None
            assert scenario.spec.n_cells == pytest.approx(
                ROTATING_STAR_LEVELS[level], rel=0.01
            )

    def test_v1309_paper_workload(self):
        scenario = v1309_scenario(level=11, build_mesh=False)
        assert scenario.spec.n_subgrids == 17_000_000
        assert scenario.spec.n_cells == V1309_CELLS

    def test_dwd_paper_workload(self):
        scenario = dwd_scenario(level=12, build_mesh=False)
        assert scenario.spec.n_subgrids == 5_150_720
        assert scenario.spec.n_cells == DWD_CELLS

    def test_dwd_fits_one_fugaku_node(self):
        from repro.machines import FUGAKU

        scenario = dwd_scenario(level=12, build_mesh=False)
        assert scenario.spec.memory_bytes <= FUGAKU.node.memory_gb * 1e9


@pytest.mark.slow
class TestBuiltScenarios:
    def test_rotating_star_mesh(self):
        scenario = rotating_star(level=2, scf_grid=32)
        mesh = scenario.mesh
        assert mesh is not None
        mesh.check_invariants()
        assert scenario.omega > 0
        assert mesh.total_mass() > 0.01
        # Density refinement put the finest level where the star is.
        assert mesh.max_level() == 2
        spec = scenario.spec
        assert spec.n_subgrids == mesh.n_subgrids()
        assert spec.fmm_interactions_per_subgrid > 0

    def test_v1309_tracers_paint_two_stars(self):
        scenario = v1309_scenario(level=2, scf_grid=32)
        mesh = scenario.mesh
        m1 = mesh.integral(Field.FRAC1)
        m2 = mesh.integral(Field.FRAC2)
        assert m1 > 0 and m2 > 0
        assert m1 + m2 == pytest.approx(mesh.total_mass(), rel=1e-6)

    def test_v1309_envelope_connects_stars(self):
        with_env = v1309_scenario(level=2, scf_grid=32, envelope_fraction=0.05)
        without = v1309_scenario(level=2, scf_grid=32, envelope_fraction=0.0)
        assert with_env.mesh.total_mass() > without.mesh.total_mass()

    def test_dwd_mass_ratio(self):
        scenario = dwd_scenario(level=2, scf_grid=32)
        assert scenario.mass_ratio == pytest.approx(0.7, abs=0.12)
        assert scenario.omega > 0

    def test_workload_measured_from_mesh(self):
        scenario = rotating_star(level=2, scf_grid=32)
        spec = workload_from_mesh(scenario.mesh, name="check")
        assert spec.n_subgrids == scenario.mesh.n_subgrids()
        assert spec.ghost_faces_per_subgrid <= 6.0
        assert spec.p2p_pairs_per_subgrid > 1.0
