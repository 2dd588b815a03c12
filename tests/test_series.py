"""Checkpoint series management and driver restart."""

import numpy as np
import pytest

from repro.ioutil import CheckpointSeries
from repro.octree import AmrMesh

from tests.conftest import fill_gaussian, make_uniform_mesh


def small_mesh():
    mesh = AmrMesh(n=4, ghost=2)
    mesh.refine((0, 0))
    fill_gaussian(mesh)
    return mesh


class TestSeries:
    def test_write_and_list(self, tmp_path):
        series = CheckpointSeries(tmp_path / "out")
        mesh = small_mesh()
        series.write(mesh, step=3, time=0.1)
        series.write(mesh, step=10, time=0.5)
        assert series.steps() == [3, 10]
        assert series.latest_step() == 10

    def test_load_latest(self, tmp_path):
        series = CheckpointSeries(tmp_path / "out")
        mesh = small_mesh()
        series.write(mesh, step=1, time=0.1)
        series.write(mesh, step=2, time=0.2)
        restored, meta = series.load_latest()
        assert meta["step"] == 2
        assert meta["time"] == 0.2
        assert restored.n_subgrids() == mesh.n_subgrids()

    def test_load_missing_step(self, tmp_path):
        series = CheckpointSeries(tmp_path / "out")
        with pytest.raises(FileNotFoundError):
            series.load(5)
        with pytest.raises(FileNotFoundError):
            series.load_latest()

    def test_prune_keeps_newest(self, tmp_path):
        series = CheckpointSeries(tmp_path / "out")
        mesh = small_mesh()
        for step in (1, 2, 3, 4, 5):
            series.write(mesh, step=step)
        removed = series.prune(keep_last=2)
        assert removed == 3
        assert series.steps() == [4, 5]

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointSeries(tmp_path, prefix="a/b")
        series = CheckpointSeries(tmp_path / "out")
        with pytest.raises(ValueError):
            series.path_for(-1)
        with pytest.raises(ValueError):
            series.prune(0)

    def test_foreign_files_ignored(self, tmp_path):
        series = CheckpointSeries(tmp_path / "out")
        (tmp_path / "out" / "notes.txt").write_text("hi")
        (tmp_path / "out" / "other_000001.npz").write_bytes(b"")
        assert series.steps() == []


@pytest.mark.slow
class TestDriverRestart:
    def test_save_and_resume(self, tmp_path):
        from repro.core import OctoTigerSim
        from tests.oracles.restart import resume
        from repro.distsim.runconfig import RunConfig
        from repro.machines import FUGAKU
        from repro.scenarios import rotating_star

        scenario = rotating_star(level=2, scf_grid=32)
        two = RunConfig(machine=FUGAKU, nodes=2)
        sim = OctoTigerSim(
            scenario.mesh, eos=scenario.eos, omega=scenario.omega, config=two
        )
        sim.step(dt=1e-3)
        path = sim.save_checkpoint(tmp_path / "run")

        resumed = resume(path, eos=scenario.eos, config=two)
        assert resumed.integrator.time == pytest.approx(1e-3)
        assert resumed.integrator.steps_taken == 1
        assert resumed.integrator.omega == pytest.approx(scenario.omega)

        # Both branches take the same next step and agree.
        sim.step(dt=1e-3)
        resumed.step(dt=1e-3)
        from repro.octree import Field

        for key in scenario.mesh.leaf_keys():
            np.testing.assert_allclose(
                resumed.mesh.nodes[key].subgrid.interior_view(Field.RHO),
                scenario.mesh.nodes[key].subgrid.interior_view(Field.RHO),
                rtol=1e-12,
            )
