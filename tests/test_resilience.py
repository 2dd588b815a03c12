"""Chaos tests: the resilience layer under injected and real faults.

Two worlds, each with the faults that mean something in it:

* the **modelled network** (``DistributedHydroDriver`` on the DES runtime):
  a seeded drop schedule loses ghost bundles, and the step raises a
  *typed* ``DeadlockError`` naming the stalled future chain — never a
  silent hang (the paper's unrecovered hang, diagnosed);
* the **real driver** (``OctoTigerSim`` on forked worker processes): a
  worker that dies between steps — told to crash, or SIGKILLed — surfaces
  as ``WorkerCrashError``, and checkpoint rollback replays to the
  uninterrupted run's sha256 with no shm segment left behind; two runs
  sharing one plan-cache directory agree and corrupt nothing.

Every test carries a wall-clock timeout (pytest-timeout when installed,
the SIGALRM shim in ``conftest.py`` otherwise): a hang is a failure, not
a stuck CI job.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import repro.core.distributed as distributed
from repro.amt.parallel import WorkerCrashError
from repro.amt.shm import live_segments
from repro.core import OctoTigerSim
from repro.distsim.runconfig import RunConfig
from repro.machines import FUGAKU
from repro.resilience import DeadlockError, FaultSpec
from repro.scenarios.blast import sedov_blast

from tests.test_distributed_driver import build_mesh

pytestmark = pytest.mark.timeout(180)


# ---------------------------------------------------------------------------
# Fault schedules
# ---------------------------------------------------------------------------
class TestFaultSpec:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultSpec(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(drop_rate=-0.1)

    def test_decisions_are_pure_functions_of_the_index(self):
        spec = FaultSpec(drop_rate=0.3, seed=11)
        a = [spec.injector(stream=2).drops(i) for i in range(200)]
        b = [spec.injector(stream=2).drops(i) for i in range(200)]
        assert a == b
        # A different stream (another timestep) draws a different schedule.
        c = [spec.injector(stream=3).drops(i) for i in range(200)]
        assert a != c
        assert any(a) and not all(a)


# ---------------------------------------------------------------------------
# Lost ghost bundles: real physics through the distributed task graph
# ---------------------------------------------------------------------------
class TestChaosDistributed:
    """DistributedHydroDriver: faults hit *real* ghost messages."""

    def test_drop_without_recovery_is_a_named_deadlock(self, monkeypatch):
        original = distributed.virtual_machine

        def lossy(*args):
            workers, core_rate, network = original(*args)
            network.fault_injector = FaultSpec(drop_rate=0.2, seed=1).injector()
            return workers, core_rate, network

        monkeypatch.setattr(distributed, "virtual_machine", lossy)
        mesh, eos = build_mesh()
        driver = distributed.DistributedHydroDriver(
            mesh, eos, config=RunConfig(machine=FUGAKU, nodes=2),
        )
        with pytest.raises(DeadlockError) as exc:
            driver.step(1e-3)
        err = exc.value
        assert "stalled chain" in str(err)
        assert err.chain, "the watchdog must name the stalled future chain"
        assert any(
            "ghost" in name or "fill" in name or "bundle" in name
            for name in err.chain
        ), f"expected a ghost/fill/bundle stage in the chain, got {err.chain}"


# ---------------------------------------------------------------------------
# Acceptance: the full driver against real worker crashes
# ---------------------------------------------------------------------------
def _process_blast(**options):
    """The level-1 blast on two forked workers (no gravity)."""
    scenario = sedov_blast(levels=1)
    return OctoTigerSim(
        scenario.mesh, eos=scenario.eos, gravity=False,
        backend="process", nprocs=2, **options,
    )


def _state_sha256(mesh):
    digest = hashlib.sha256()
    for key in sorted(mesh.leaf_keys()):
        digest.update(repr(key).encode())
        interior = mesh.nodes[key].subgrid.interior_view()
        digest.update(np.ascontiguousarray(interior).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def uninterrupted_sha():
    """sha256 of the blast after three uninterrupted steps."""
    sim = _process_blast()
    try:
        sim.run(3)
    finally:
        sim.close()
    return _state_sha256(sim.mesh)


def _crash(sim):
    sim.integrator.executor().engine.crash(1)


def _sigkill(sim):
    victim = sim.integrator.executor().engine.localities[1].process
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)
    assert not victim.is_alive()


class TestDriverAcceptance:
    def _crash_after_one_step(self, kill=_crash, **options):
        """Step once, kill worker 1 between steps, then step twice more:
        the second run's first step meets the dead worker and rolls back."""
        sim = _process_blast(checkpoint_every=1, **options)
        try:
            sim.run(1)
            kill(sim)
            records = sim.run(2)
        finally:
            sim.close()
        assert [r.step for r in records] == [2, 3]
        assert sim.counters.total("resilience.rollbacks") == 1
        assert live_segments() == ()
        return sim

    def test_crash_rolls_back_and_replays_bit_exactly(self, uninterrupted_sha):
        sim = self._crash_after_one_step()
        assert _state_sha256(sim.mesh) == uninterrupted_sha

    @pytest.mark.parametrize("overlap", [True, False], ids=["overlap", "bsp"])
    def test_sigkill_between_steps_recovers_bit_exactly(
        self, uninterrupted_sha, overlap
    ):
        """The worker dies with no goodbye (no reply, no pipe close from
        its side) and the next step — one fused round per RK stage under
        ``overlap`` — meets a dead peer."""
        sim = self._crash_after_one_step(kill=_sigkill, overlap=overlap)
        assert _state_sha256(sim.mesh) == uninterrupted_sha

    def test_rollback_keeps_the_plan_cache(self, tmp_path, uninterrupted_sha):
        """The post-rollback integrator comes from the same construction
        helper as the first one: it still uses the persistent plan cache,
        so the replayed topology (stored by the first build) is a cache
        hit, never a second cold build."""
        sim = self._crash_after_one_step(plan_cache=tmp_path)
        assert sim.integrator.plans.cache is sim.plan_cache
        assert sim.counters.total("plan.hydro.cold_builds") == 1
        assert sim.counters.total("plan.hydro.cache_hit_builds") >= 1
        assert _state_sha256(sim.mesh) == uninterrupted_sha

    def test_crash_without_checkpoints_raises(self):
        """Nothing to roll back to: the typed fault reaches the caller, and
        the failed step has already torn the pool and its arenas down."""
        sim = _process_blast()
        try:
            sim.run(1)
            _crash(sim)
            with pytest.raises(WorkerCrashError):
                sim.run(1)
            assert live_segments() == ()
        finally:
            sim.close()


class TestDriverCheckpointDirectory:
    def test_owned_directory_is_pruned_and_removed(self, monkeypatch, tmp_path):
        """Without ``checkpoint_dir`` the series lives in a directory the
        driver created: it holds only the newest checkpoint and ``close``
        removes it."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        scenario = sedov_blast(levels=1)
        sim = OctoTigerSim(
            scenario.mesh, eos=scenario.eos, gravity=False, checkpoint_every=1
        )
        sim.run(3)
        [owned] = tmp_path.glob("repro-ckpt-*")
        assert [p.name for p in owned.iterdir()] == ["driver_000003.npz"]
        sim.close()
        assert list(tmp_path.glob("repro-ckpt-*")) == []

    def test_given_directory_keeps_every_checkpoint(self, tmp_path):
        scenario = sedov_blast(levels=1)
        sim = OctoTigerSim(
            scenario.mesh, eos=scenario.eos, gravity=False,
            checkpoint_every=1, checkpoint_dir=tmp_path,
        )
        sim.run(3)
        sim.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"driver_{step:06d}.npz" for step in range(4)
        ]


_SHARED_CACHE_RUN = """
import hashlib, json, sys
import numpy as np
from repro.core import OctoTigerSim
from repro.scenarios.blast import sedov_blast

scenario = sedov_blast(levels=1)
sim = OctoTigerSim(scenario.mesh, eos=scenario.eos, gravity=False,
                   plan_cache=sys.argv[1])
sim.run(2)
digest = hashlib.sha256()
for key in sorted(sim.mesh.leaf_keys()):
    digest.update(repr(key).encode())
    interior = sim.mesh.nodes[key].subgrid.interior_view()
    digest.update(np.ascontiguousarray(interior).tobytes())
print(json.dumps({"sha": digest.hexdigest(),
                  "errors": sim.plan_cache.stats.errors}))
"""


def test_two_runs_share_one_plan_cache_directory(tmp_path):
    """Two processes run the same blast at the same time on one plan-cache
    directory: both finish with the same bits and no cache error, and a
    third run over the same topology builds nothing cold."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _SHARED_CACHE_RUN, str(tmp_path)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    results = []
    for run in runs:
        out, err = run.communicate(timeout=120)
        assert run.returncode == 0, err
        results.append(json.loads(out))
    assert results[0]["sha"] == results[1]["sha"]
    assert [r["errors"] for r in results] == [0, 0]

    scenario = sedov_blast(levels=1)
    third = OctoTigerSim(
        scenario.mesh, eos=scenario.eos, gravity=False, plan_cache=tmp_path
    )
    third.run(2)
    cold = [n for n in third.counters.names() if n.endswith(".cold_builds")]
    assert [third.counters.total(n) for n in cold] == [0] * len(cold)
    assert third.counters.total("plan.hydro.cache_hit_builds") >= 1
    assert third.plan_cache.stats.errors == 0
    assert _state_sha256(third.mesh) == results[0]["sha"]


@pytest.mark.parametrize(
    "module",
    ["repro.resilience", "repro.amt.parallel", "repro.amt"],
)
def test_first_repro_import_succeeds(module):
    # repro.amt.parallel raises UnrecoverableFault and repro.resilience's
    # watchdog observes repro.amt pools: each side must import cleanly in a
    # fresh interpreter, whichever comes first.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
