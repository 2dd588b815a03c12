"""Core driver, diagnostics, checkpointing, profiling."""

import numpy as np
import pytest

from repro.core import OctoTigerSim
from repro.core.diagnostics import (
    center_of_mass,
    conserved_totals,
    diagnostics,
    total_angular_momentum_z,
)
from repro.distsim.runconfig import RunConfig
from repro.ioutil import CheckpointError, load_checkpoint, save_checkpoint
from repro.machines import FUGAKU, OOKAMI
from repro.octree import AmrMesh, Field
from repro.profiling import CounterRegistry, global_registry

from tests.conftest import fill_gaussian, make_uniform_mesh


class TestDiagnostics:
    def test_conserved_totals(self):
        mesh = make_uniform_mesh(levels=1)
        fill_gaussian(mesh)
        totals = conserved_totals(mesh)
        assert totals["mass"] == pytest.approx(mesh.total_mass())
        assert totals["sx"] == 0.0

    def test_angular_momentum_of_rigid_rotation(self):
        mesh = make_uniform_mesh(levels=1)
        omega = 0.5
        for leaf in mesh.leaves():
            x, y, _ = leaf.cell_centers()
            leaf.subgrid.set_interior(Field.RHO, np.ones((8, 8, 8)))
            leaf.subgrid.set_interior(Field.SX, -omega * y)
            leaf.subgrid.set_interior(Field.SY, omega * x)
        lz = total_angular_momentum_z(mesh)
        # L_z = omega * integral rho (x^2 + y^2) dV over the cube.
        dx = 2.0 / 16
        centers = -1.0 + dx * (np.arange(16) + 0.5)
        x, y, _ = np.meshgrid(centers, centers, centers, indexing="ij")
        expected = omega * ((x**2 + y**2) * dx**3).sum()
        assert lz == pytest.approx(expected, rel=1e-10)

    def test_center_of_mass_tracks_blob(self):
        mesh = make_uniform_mesh(levels=2)
        fill_gaussian(mesh, center=(0.3, 0.0, -0.2))
        com = center_of_mass(mesh)
        np.testing.assert_allclose(com, [0.3, 0.0, -0.2], atol=0.02)

    def test_total_energy_with_potential(self):
        mesh = make_uniform_mesh(levels=1)
        fill_gaussian(mesh)
        phi = {leaf.key: -np.ones((8, 8, 8)) for leaf in mesh.leaves()}
        d = diagnostics(mesh, phi)
        assert d.energy_gas + d.energy_potential == pytest.approx(
            mesh.integral(Field.EGAS) - 0.5 * mesh.total_mass()
        )

    def test_diagnostics_bundle(self):
        mesh = make_uniform_mesh(levels=1)
        fill_gaussian(mesh)
        d = diagnostics(mesh)
        assert d.mass > 0
        assert d.energy_potential == 0.0  # no potential supplied
        assert d.tracer_masses.shape == (2,)


class TestCheckpoint(object):
    def test_round_trip_bit_identical(self, tmp_path):
        mesh = AmrMesh()
        mesh.refine((0, 0))
        mesh.refine((1, 0))
        fill_gaussian(mesh)
        path = save_checkpoint(mesh, tmp_path / "chk", time=1.5, step=42,
                               extra={"omega": 0.3})
        restored, meta = load_checkpoint(path)
        assert meta["time"] == 1.5
        assert meta["step"] == 42
        assert meta["extra"]["omega"] == 0.3
        assert set(restored.nodes) == set(mesh.nodes)
        for key, node in mesh.nodes.items():
            other = restored.nodes[key]
            assert other.is_leaf == node.is_leaf
            np.testing.assert_array_equal(other.subgrid.data, node.subgrid.data)

    def test_suffix_added(self, tmp_path):
        mesh = AmrMesh()
        path = save_checkpoint(mesh, tmp_path / "state")
        assert path.suffix == ".npz"

    def test_localities_preserved(self, tmp_path):
        from repro.octree.partition import sfc_partition

        mesh = make_uniform_mesh(levels=1)
        sfc_partition(mesh, 4)
        path = save_checkpoint(mesh, tmp_path / "part")
        restored, _ = load_checkpoint(path)
        for key in mesh.leaf_keys():
            assert restored.nodes[key].locality == mesh.nodes[key].locality

    def test_version_check(self, tmp_path):
        import json

        import numpy as np

        mesh = AmrMesh()
        path = save_checkpoint(mesh, tmp_path / "v")
        data = dict(np.load(path))
        meta = json.loads(bytes(data["meta"].tobytes()).decode())
        meta["format_version"] = 99
        data["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="format"):
            load_checkpoint(path)

    def test_interrupted_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        """A crash mid-write must not tear the newest checkpoint: the
        previous file stays loadable and no temp file is left behind."""
        import repro.ioutil.checkpoint as module

        mesh = make_uniform_mesh(levels=1)
        fill_gaussian(mesh)
        path = save_checkpoint(mesh, tmp_path / "state", step=1)

        def torn(fh, **arrays):
            fh.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(module.np, "savez_compressed", torn)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(mesh, path, step=2)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        _, meta = load_checkpoint(path)
        assert meta["step"] == 1

    @pytest.mark.parametrize("caller", ["checkpoint", "plan_cache"])
    def test_write_failing_mid_file_keeps_previous_file(
        self, tmp_path, monkeypatch, caller
    ):
        """Both users of ``atomic_write``: the device fills up half-way
        through a write, the previous complete file stays in place and
        readable, no ``*.tmp`` is left; ``save_checkpoint`` raises,
        ``PlanCache.store`` reports ``False``."""
        import numpy as np

        import repro.ioutil.atomic as atomic
        from repro.core.plancache import PlanCache

        class FullDisk:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def write(self, data):
                self.fh.write(bytes(data)[: len(data) // 2])
                raise OSError("disk full")

        mesh = make_uniform_mesh(levels=1)
        cache = PlanCache(tmp_path)
        payload = {"pairs": np.arange(6)}
        if caller == "checkpoint":
            save_checkpoint(mesh, tmp_path / "state", step=1)
        else:
            assert cache.store("fmm", "abc", {}, payload)
        [before] = list(tmp_path.iterdir())
        fdopen = atomic.os.fdopen
        monkeypatch.setattr(
            atomic.os, "fdopen", lambda fd, mode: FullDisk(fdopen(fd, mode))
        )
        if caller == "checkpoint":
            with pytest.raises(OSError, match="disk full"):
                save_checkpoint(mesh, before, step=2)
        else:
            assert not cache.store("fmm", "abc", {}, {"pairs": np.arange(9)})
            assert cache.stats.errors == 1
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == [before]
        if caller == "checkpoint":
            assert load_checkpoint(before)[1]["step"] == 1
        else:
            assert np.array_equal(cache.load("fmm", "abc", {})["pairs"], payload["pairs"])

    def test_plan_cache_of_resolves_every_argument_form(self, tmp_path):
        from repro.core.plancache import PlanCache

        assert PlanCache.of(None) is None
        store = PlanCache(tmp_path)
        assert PlanCache.of(store) is store
        for root in (tmp_path, str(tmp_path)):
            handle = PlanCache.of(root)
            assert isinstance(handle, PlanCache) and handle is not store
            assert handle.directory == tmp_path

    def test_truncated_file_raises_checkpoint_error(self, tmp_path):
        mesh = make_uniform_mesh(levels=1)
        path = save_checkpoint(mesh, tmp_path / "state")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.npz")


class TestProfiling:
    def test_counters(self):
        reg = CounterRegistry()
        reg.sample("kernel.time", 1.0)
        reg.sample("kernel.time", 3.0)
        counter = reg.get("kernel.time")
        assert counter.count == 2
        assert counter.total == 4.0
        assert counter.mean == 2.0
        assert counter.maximum == 3.0

    def test_increment(self):
        reg = CounterRegistry()
        reg.increment("launches")
        reg.increment("launches", 5)
        assert reg.count("launches") == 2
        assert reg.total("launches") == 6.0

    def test_scoped_timer(self):
        reg = CounterRegistry()
        with reg.timer("wall"):
            sum(range(1000))
        assert reg.count("wall") == 1
        assert reg.total("wall") > 0

    def test_report_format(self):
        reg = CounterRegistry()
        reg.sample("a.b", 2.0)
        report = reg.report()
        assert "a.b" in report
        assert "count" in report

    def test_reset(self):
        reg = CounterRegistry()
        reg.sample("x", 1.0)
        reg.reset()
        assert reg.names() == []

    def test_global_registry_is_singleton(self):
        assert global_registry() is global_registry()


@pytest.mark.slow
class TestDriver:
    @pytest.fixture(scope="class")
    def scenario(self):
        from repro.scenarios import rotating_star

        return rotating_star(level=2, scf_grid=32)

    def test_step_conserves_and_times(self, scenario):
        sim = OctoTigerSim(
            scenario.mesh, eos=scenario.eos, omega=scenario.omega,
            config=RunConfig(machine=FUGAKU, nodes=4),
        )
        mass0 = scenario.mesh.total_mass()
        record = sim.step()
        assert scenario.mesh.total_mass() == pytest.approx(mass0, rel=1e-12)
        assert record.virtual_seconds > 0
        assert record.cells_per_second > 0
        assert 0 < record.utilization <= 1
        assert 35 <= record.node_power_w <= 120

    def test_counters_populated(self, scenario):
        sim = OctoTigerSim(
            scenario.mesh, eos=scenario.eos, config=RunConfig(machine=OOKAMI, nodes=2)
        )
        sim.step()
        assert sim.counters.count("wall.step") == 1
        assert sim.counters.count("fmm.p2p_pairs") == 1
        assert sim.counters.total("virtual.step_seconds") > 0

    def test_partition_applied(self, scenario):
        OctoTigerSim(
            scenario.mesh, eos=scenario.eos, config=RunConfig(machine=FUGAKU, nodes=4)
        )
        localities = {leaf.locality for leaf in scenario.mesh.leaves()}
        assert localities == {0, 1, 2, 3}

    def test_virtual_nodes_do_not_split_the_serial_plan(self):
        """The DES backend writes virtual-node localities onto the leaves
        (``nodes=4``); the serial hydro plan takes its rank assignment as
        an explicit input, so it is still exactly one bundle and the
        physics is bit-identical to ``nodes=1``."""
        from repro.scenarios.blast import sedov_blast

        sims = []
        for nodes in (1, 4):
            scenario = sedov_blast(levels=1)
            scenario.mesh.refine(sorted(scenario.mesh.leaf_keys())[0])
            sim = OctoTigerSim(
                scenario.mesh, eos=scenario.eos, gravity=False,
                config=RunConfig(machine=FUGAKU, nodes=nodes),
            )
            sim.step()
            sim.step()
            assert list(sim.integrator.plan_for().ghosts.bundles) == [(0, 0)]
            sims.append(sim)
        assert {leaf.locality for leaf in sims[1].mesh.leaves()} == {0, 1, 2, 3}
        for key in sims[0].mesh.leaf_keys():
            assert np.array_equal(
                sims[0].mesh.nodes[key].subgrid.data,
                sims[1].mesh.nodes[key].subgrid.data,
            ), key

    def test_config_is_the_source_of_machine_and_nodes(self):
        """``config`` is the one place the machine and node count come
        from: it prices the step's power draw, and the default is one
        Fugaku node."""
        from repro.scenarios.blast import sedov_blast

        def power(config=None):
            scenario = sedov_blast(levels=1)
            sim = OctoTigerSim(
                scenario.mesh, eos=scenario.eos, gravity=False, config=config
            )
            return sim.step().node_power_w

        fugaku = power(RunConfig(machine=FUGAKU, nodes=1))
        assert fugaku == power()
        assert power(RunConfig(machine=OOKAMI, nodes=4)) != fugaku

    def test_gravity_free_driver(self, scenario):
        sim = OctoTigerSim(scenario.mesh, eos=scenario.eos, gravity=False)
        record = sim.step(dt=1e-4)
        assert record.dt == 1e-4
        assert sim.gravity_solver is None


def _count_run_step(monkeypatch):
    """Count entries into the DES (wrapped by name, as the benchmark does)."""
    from repro.distsim.taskgraph import TaskGraphSimulator

    calls = []
    inner = TaskGraphSimulator.run_step

    def run_step(self, *args, **kwargs):
        calls.append(self.spec)
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(TaskGraphSimulator, "run_step", run_step)
    return calls


class TestVirtualTimingReuse:
    """The modelled timing is a pure function of ``(spec, config)``:
    priced once per workload."""

    def test_priced_once_per_workload(self, monkeypatch):
        from repro.scenarios.blast import sedov_blast
        from tests.conftest import DensityCriterion

        calls = _count_run_step(monkeypatch)
        scenario = sedov_blast(levels=1)
        sim = OctoTigerSim(
            scenario.mesh, eos=scenario.eos, gravity=False,
            config=RunConfig(machine=FUGAKU, nodes=2),
        )
        records = [sim.step() for _ in range(3)]
        assert len(calls) == 1
        assert len({r.virtual_seconds for r in records}) == 1
        assert sim.counters.count("virtual.step_seconds") == 3

        before = sim.spec
        result = sim.regrid(DensityCriterion(refine_above=0.5), max_level=2)
        assert result.changed and sim.spec != before
        after = sim.step()
        sim.step()
        assert len(calls) == 2
        assert after.virtual_seconds != records[0].virtual_seconds


class TestDriverSpecFromPlans:
    """With gravity on, the driver reads its workload off the live plans;
    the numbers are the ones the mesh-only traversal measures."""

    @staticmethod
    def _mesh(refine_first: bool):
        mesh = make_uniform_mesh(levels=1)
        if refine_first:
            mesh.refine(sorted(mesh.leaf_keys())[0])
        fill_gaussian(mesh)
        return mesh

    @pytest.mark.parametrize("refine_first", [False, True])
    def test_equals_workload_from_mesh(self, refine_first):
        from repro.scenarios.spec import workload_from_mesh

        mesh = self._mesh(refine_first)
        sim = OctoTigerSim(mesh)
        faces = sim.integrator.plan_for().ghosts.face_counts
        assert (faces["fine"] > 0) == refine_first
        assert sim.spec == workload_from_mesh(mesh, name="driver")

    def test_follows_the_solver_theta(self, monkeypatch):
        from repro.gravity import fmm
        from repro.scenarios.spec import workload_from_mesh
        from tests.oracles.fmm import traverse

        mesh = make_uniform_mesh(levels=2)  # large enough for theta to matter
        sim = OctoTigerSim(mesh)
        default = workload_from_mesh(mesh, name="driver")
        monkeypatch.setattr(fmm, "THETA", 1.0)
        far, near, p2p = traverse(mesh, 1.0)
        n = mesh.n_subgrids()
        assert sim.spec.fmm_interactions_per_subgrid == 2.0 * (len(far) + len(near)) / n
        assert sim.spec.p2p_pairs_per_subgrid == 2.0 * len(p2p) / n
        assert sim.spec != default


class TestOneWayToConfigure:
    def test_second_config_path_and_unset_options_are_gone(self):
        """A run is configured by the constructors alone: the dotted-key
        ``Config`` and ``OctoTigerSim.from_config`` are gone, options no
        caller set are constants, and the process executor takes only the
        integrator whose settings it runs under."""
        import importlib
        import inspect

        from repro.core.crosscheck import crosscheck_hydro
        from repro.core.distributed import DistributedHydroDriver
        from repro.distsim.taskgraph import TaskGraphSimulator
        from repro.gravity.fmm import FmmSolver
        from repro.hydro.integrator import HydroIntegrator, rk3_ops
        from repro.hydro.plan import RankStep
        from repro.hydro.process_backend import ProcessHydroExecutor

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.util.config")
        assert not hasattr(OctoTigerSim, "from_config")

        def parameters(fn):
            return [p for p in inspect.signature(fn).parameters if p != "self"]

        assert parameters(OctoTigerSim) == [
            "mesh", "eos", "omega", "gravity", "config", "checkpoint_every",
            "checkpoint_dir", "backend", "nprocs", "overlap", "verify_plans",
            "detect_races", "plan_cache",
        ]
        assert parameters(ProcessHydroExecutor) == ["integrator"]
        assert parameters(TaskGraphSimulator) == [
            "spec", "config", "constants", "faults",
        ]
        assert parameters(crosscheck_hydro) == [
            "mesh", "steps", "nprocs", "eos", "omega", "gravity", "overlap",
            "mutate", "detect_races", "plan_cache",
        ]
        # Physics options with one value in use are constants: CFL 0.4,
        # refluxing, MUSCL, gravity once per step, THETA 0.5, G = 1.
        assert parameters(HydroIntegrator) == [
            "mesh", "eos", "omega", "gravity", "backend", "nprocs", "overlap",
            "verify_plans", "detect_races", "plan_cache",
        ]
        assert parameters(HydroIntegrator.plan_for) == []
        assert parameters(FmmSolver) == [
            "order", "momentum_correction", "angmom_correction",
            "empty_mass_threshold", "verify_plans", "plan_cache",
        ]
        assert parameters(RankStep) == [
            "plan", "rank", "eos", "omega", "registry", "use_accel",
            "collect_fluxes", "accel_view", "flux_view", "scratch",
        ]
        assert parameters(rk3_ops) == [
            "dt", "collect_fluxes", "use_accel", "overlap",
        ]
        assert parameters(DistributedHydroDriver) == [
            "mesh", "eos", "omega", "config", "gravity",
        ]
        assert parameters(ProcessHydroExecutor.step) == ["dt", "gravity"]
