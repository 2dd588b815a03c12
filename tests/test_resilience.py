"""Chaos tests: the resilience layer under injected and real faults.

Two worlds, each with the faults that mean something in it:

* the **modelled network** (``DistributedHydroDriver`` on the DES runtime):
  the matrix crosses fault kinds (drop / delay / duplicate / node crash,
  plus a mixed schedule) with recovery on and off.  With recovery every
  run completes and the physical state matches the fault-free run
  bit-exactly (the virtual clock makes the protocol deterministic);
  without it, lossy schedules raise a *typed* ``DeadlockError`` naming the
  stalled future chain (or ``UnrecoverableFault`` when retransmission
  gives up on a crashed node) — never a silent hang;
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

from repro.amt.engine import Engine
from repro.amt.network import Message, NetworkModel
from repro.amt.parallel import WorkerCrashError
from repro.amt.shm import live_segments
from repro.core import OctoTigerSim
from repro.core.distributed import DistributedHydroDriver
from repro.distsim.runconfig import RunConfig
from repro.machines import FUGAKU
from repro.resilience import (
    DeadlockError,
    FaultSpec,
    ReliableTransport,
    RetryPolicy,
    UnrecoverableFault,
)
from repro.scenarios.blast import sedov_blast

from tests.test_distributed_driver import build_mesh, clone

pytestmark = pytest.mark.timeout(180)


def assert_fields_match(mesh_a, mesh_b):
    for key in mesh_a.leaf_keys():
        assert np.array_equal(
            mesh_b.nodes[key].subgrid.interior_view(),
            mesh_a.nodes[key].subgrid.interior_view(),
        ), key


# ---------------------------------------------------------------------------
# Fault schedules
# ---------------------------------------------------------------------------
class TestFaultSpec:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultSpec(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(delay_s=-1.0)

    def test_decisions_are_pure_functions_of_the_index(self):
        spec = FaultSpec(drop_rate=0.3, delay_rate=0.3, delay_s=1e-5,
                         duplicate_rate=0.3, seed=11)
        a = [spec.injector(stream=2).decide(i, 0, 1) for i in range(200)]
        b = [spec.injector(stream=2).decide(i, 0, 1) for i in range(200)]
        assert a == b
        # A different stream (another timestep) draws a different schedule.
        c = [spec.injector(stream=3).decide(i, 0, 1) for i in range(200)]
        assert a != c
        assert any(d.drop for d in a)
        assert any(d.extra_delay_s > 0 for d in a)
        assert any(d.duplicates for d in a)

    def test_crash_drops_everything_touching_the_locality(self):
        spec = FaultSpec(crash_locality=1, crash_step=0)
        injector = spec.injector(stream=0)
        assert injector.decide(0, 1, 2).drop  # from the dead node
        assert injector.decide(1, 0, 1).drop  # to the dead node
        assert not injector.decide(2, 0, 2).drop  # bystanders unaffected
        # On another step the node is alive.
        later = spec.injector(stream=1)
        assert not later.crash_active
        assert not later.decide(0, 1, 2).drop


# ---------------------------------------------------------------------------
# The acknowledged-retransmit transport, in isolation
# ---------------------------------------------------------------------------
def _wire(**kwargs):
    engine = Engine()
    net = NetworkModel(latency_s=1e-6, bandwidth_Bps=1e9,
                       action_overhead_s=0.0, **kwargs)
    return engine, net


class TestReliableTransport:
    def test_dropped_packet_is_retransmitted(self):
        engine, net = _wire()
        net.drop_message(0)
        transport = ReliableTransport(net, engine,
                                      policy=RetryPolicy(timeout_s=1e-3))
        got = []
        transport.send(Message(0, 1, "a", 100, tag="a"),
                       lambda m: got.append(m.payload))
        engine.run()
        assert got == ["a"]
        assert transport.stats.retransmits == 1
        assert net.messages_dropped == 1
        assert transport.in_flight() == 0

    def test_lost_ack_does_not_double_deliver(self):
        engine, net = _wire()
        net.drop_message(1)  # index 0 = data, index 1 = its ack
        transport = ReliableTransport(net, engine,
                                      policy=RetryPolicy(timeout_s=1e-3))
        got = []
        transport.send(Message(0, 1, "a", 100, tag="a"),
                       lambda m: got.append(m.payload))
        engine.run()
        # The sender retransmitted (it never saw the ack); the receiver
        # suppressed the duplicate and re-acked.
        assert got == ["a"]
        assert transport.stats.retransmits == 1
        assert transport.stats.duplicates_suppressed == 1
        assert transport.in_flight() == 0

    def test_fifo_survives_retransmission(self):
        # Drop the FIRST of three packets on the same ordered pair: the
        # later ones arrive early, sit in the reorder buffer, and are
        # delivered in sequence order once the retransmission lands.
        engine, net = _wire()
        net.drop_message(0)
        transport = ReliableTransport(net, engine,
                                      policy=RetryPolicy(timeout_s=1e-3))
        order = []
        for tag in ("a", "b", "c"):
            transport.send(Message(0, 1, tag, 100, tag=tag),
                           lambda m: order.append(m.tag))
        engine.run()
        assert order == ["a", "b", "c"]
        assert transport.stats.reordered >= 1
        assert transport.stats.packets_delivered == 3

    def test_wire_duplication_delivers_exactly_once(self):
        engine, net = _wire()
        net.fault_injector = FaultSpec(duplicate_rate=1.0, seed=0).injector()
        transport = ReliableTransport(net, engine,
                                      policy=RetryPolicy(timeout_s=1e-3))
        got = []
        for tag in ("a", "b"):
            transport.send(Message(0, 1, tag, 100, tag=tag),
                           lambda m: got.append(m.tag))
        engine.run()
        assert got == ["a", "b"]
        assert transport.stats.duplicates_suppressed >= 2

    def test_retries_exhausted_raises_typed_fault(self):
        engine, net = _wire()
        net.fault_injector = FaultSpec(drop_rate=1.0, seed=0).injector()
        transport = ReliableTransport(
            net, engine, policy=RetryPolicy(timeout_s=1e-3, max_retries=2)
        )
        transport.send(Message(0, 1, "doomed", 100, tag="ghost.X"),
                       lambda m: None)
        with pytest.raises(UnrecoverableFault, match="retries exhausted") as exc:
            engine.run()
        assert exc.value.tag == "ghost.X"
        assert exc.value.attempts == 3  # initial + max_retries
        assert transport.stats.failures == 1


# ---------------------------------------------------------------------------
# Chaos matrix: real physics through the distributed task graph
# ---------------------------------------------------------------------------
CHAOS_SCHEDULES = [
    # Coalescing (docs/comms.md) cut per-step message volume ~10x, so the
    # drop rates here are scaled up to keep the seeded schedules biting.
    pytest.param(FaultSpec(drop_rate=0.2, seed=1), id="drop"),
    pytest.param(FaultSpec(delay_rate=0.5, delay_s=1e-4, seed=1), id="delay"),
    pytest.param(FaultSpec(duplicate_rate=0.5, seed=2), id="duplicate"),
    pytest.param(
        FaultSpec(drop_rate=0.04, delay_rate=0.3, delay_s=1e-4,
                  duplicate_rate=0.2, seed=3),
        id="mixed",
    ),
]


class TestChaosDistributed:
    """DistributedHydroDriver: faults hit *real* ghost messages."""

    @pytest.mark.parametrize("faults", CHAOS_SCHEDULES)
    def test_recovery_completes_and_matches_fault_free(self, faults):
        mesh_clean, eos = build_mesh()
        mesh_chaos = clone(mesh_clean)
        config = RunConfig(machine=FUGAKU, nodes=2)

        clean = DistributedHydroDriver(mesh_clean, eos, config=config)
        chaos = DistributedHydroDriver(
            mesh_chaos, eos, config=config, faults=faults, recovery=True
        )
        for _ in range(2):
            clean.step(1e-3)
            result = chaos.step(1e-3)
        assert_fields_match(mesh_clean, mesh_chaos)
        assert result.acks > 0  # the protocol actually ran
        if faults.drop_rate > 0:
            # The schedule must have bitten for the test to mean anything.
            assert result.messages_dropped > 0
            assert result.retransmits > 0

    def test_injected_delays_stretch_the_makespan(self):
        mesh_a, eos = build_mesh()
        mesh_b = clone(mesh_a)
        config = RunConfig(machine=FUGAKU, nodes=2)
        clean = DistributedHydroDriver(mesh_a, eos, config=config).step(1e-3)
        delayed = DistributedHydroDriver(
            mesh_b, eos, config=config,
            faults=FaultSpec(delay_rate=0.5, delay_s=1e-4, seed=1),
            recovery=True,
        ).step(1e-3)
        assert delayed.makespan_s > clean.makespan_s
        assert_fields_match(mesh_a, mesh_b)

    @pytest.mark.parametrize(
        "faults",
        [
            pytest.param(FaultSpec(delay_rate=0.5, delay_s=1e-4, seed=1),
                         id="delay"),
            pytest.param(FaultSpec(duplicate_rate=0.5, seed=2),
                         id="duplicate"),
        ],
    )
    def test_lossless_faults_complete_even_without_recovery(self, faults):
        # Delays and duplicates reorder the schedule but lose nothing, so
        # the bare fire-and-forget network still finishes — and because the
        # data motion is promise-guarded, the fields still match exactly.
        mesh_clean, eos = build_mesh()
        mesh_chaos = clone(mesh_clean)
        config = RunConfig(machine=FUGAKU, nodes=2)
        DistributedHydroDriver(mesh_clean, eos, config=config).step(1e-3)
        DistributedHydroDriver(
            mesh_chaos, eos, config=config, faults=faults
        ).step(1e-3)
        assert_fields_match(mesh_clean, mesh_chaos)

    def test_drop_without_recovery_is_a_named_deadlock(self):
        mesh, eos = build_mesh()
        driver = DistributedHydroDriver(
            mesh, eos, config=RunConfig(machine=FUGAKU, nodes=2),
            faults=FaultSpec(drop_rate=0.2, seed=1),
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

    def test_crash_without_recovery_is_a_named_deadlock(self):
        mesh, eos = build_mesh()
        driver = DistributedHydroDriver(
            mesh, eos, config=RunConfig(machine=FUGAKU, nodes=2),
            faults=FaultSpec(crash_locality=1, crash_step=0),
        )
        with pytest.raises(DeadlockError) as exc:
            driver.step(1e-3)
        assert exc.value.chain

    def test_crash_defeats_retransmission(self):
        # Retry helps against loss, not against a dead peer: the transport
        # gives up with the typed fault that tells the driver to restart.
        mesh, eos = build_mesh()
        driver = DistributedHydroDriver(
            mesh, eos, config=RunConfig(machine=FUGAKU, nodes=2),
            faults=FaultSpec(crash_locality=1, crash_step=0),
            recovery=RetryPolicy(timeout_s=1e-4, max_retries=2),
        )
        with pytest.raises(UnrecoverableFault, match="retries exhausted"):
            driver.step(1e-3)


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
    ["repro.resilience", "repro.resilience.protocol", "repro.amt.parallel", "repro.amt"],
)
def test_first_repro_import_succeeds(module):
    # repro.amt.parallel raises UnrecoverableFault and the protocol imports
    # repro.amt: each side of that pair must import cleanly in a fresh
    # interpreter, whichever comes first.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
