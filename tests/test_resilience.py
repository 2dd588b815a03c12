"""Seeded chaos tests: the resilience layer under injected network faults.

The matrix crosses fault kinds (drop / delay / duplicate / node crash,
plus a mixed schedule) with recovery on and off.  The property under test
is always the same, and it is the one the paper could not get on Fugaku:

* with recovery, every run **completes** and the physical state matches
  the fault-free run to 1e-12 (in fact bit-exactly — the virtual clock
  makes the protocol deterministic);
* without recovery, lossy schedules raise a *typed* ``DeadlockError``
  naming the stalled future chain (or ``UnrecoverableFault`` when
  retransmission gives up on a crashed node) — never a silent hang.

Every test carries a wall-clock timeout (pytest-timeout when installed,
the SIGALRM shim in ``conftest.py`` otherwise): a hang is a failure, not
a stuck CI job.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.amt.engine import Engine
from repro.amt.network import Message, NetworkModel
from repro.core import OctoTigerSim
from repro.core.diagnostics import conserved_totals
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


def assert_fields_match(mesh_a, mesh_b, atol=1e-12):
    for key in mesh_a.leaf_keys():
        np.testing.assert_allclose(
            mesh_b.nodes[key].subgrid.interior_view(),
            mesh_a.nodes[key].subgrid.interior_view(),
            rtol=0,
            atol=atol,
        )


# ---------------------------------------------------------------------------
# Fault schedules
# ---------------------------------------------------------------------------
class TestFaultSpec:
    def test_parse_round_trip(self):
        spec = FaultSpec.parse("drop=0.01, delay=0.2, delay_s=1e-4, dup=0.05, "
                               "seed=7, crash_loc=1, crash_step=2")
        assert spec == FaultSpec(
            drop_rate=0.01, delay_rate=0.2, delay_s=1e-4, duplicate_rate=0.05,
            seed=7, crash_locality=1, crash_step=2,
        )

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault key"):
            FaultSpec.parse("lose=0.5")
        with pytest.raises(ValueError, match="not key=value"):
            FaultSpec.parse("drop")

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

    def test_without_crash_heals_only_the_crash(self):
        spec = FaultSpec(drop_rate=0.1, crash_locality=2)
        healed = spec.without_crash()
        assert healed.crash_locality == -1
        assert healed.drop_rate == 0.1


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
# Acceptance: the full driver on the blast scenario
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def blast_reference():
    """Fault-free blast run: final conserved totals (module-scoped)."""
    scenario = sedov_blast(levels=2)
    sim = OctoTigerSim(scenario.mesh, eos=scenario.eos, nodes=2)
    sim.run(2)
    return conserved_totals(sim.mesh)


def _assert_conserved_match(totals, reference, rtol=1e-12):
    for name, value in reference.items():
        assert abs(totals[name] - value) <= rtol * max(1.0, abs(value)), (
            f"{name}: {totals[name]!r} != {value!r}"
        )


class TestDriverAcceptance:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_drop_with_recovery_matches_fault_free(
        self, seed, blast_reference
    ):
        scenario = sedov_blast(levels=2)
        sim = OctoTigerSim(
            scenario.mesh, eos=scenario.eos, nodes=2,
            faults=FaultSpec(drop_rate=0.1, seed=seed),
        )
        records = sim.run(2)
        assert len(records) == 2
        assert sim.counters.total("resilience.messages_dropped") > 0
        assert sim.counters.total("resilience.retransmits") > 0
        _assert_conserved_match(conserved_totals(sim.mesh), blast_reference)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_seeds_without_recovery_deadlock(self, seed):
        scenario = sedov_blast(levels=2)
        sim = OctoTigerSim(
            scenario.mesh, eos=scenario.eos, nodes=2,
            faults=FaultSpec(drop_rate=0.1, seed=seed),
            recovery=False,
        )
        with pytest.raises(DeadlockError) as exc:
            sim.run(2)
        assert exc.value.chain
        assert "stalled chain" in str(exc.value)
        assert sim.counters.total("resilience.watchdog_trips") == 1

    def test_crash_rolls_back_and_replays_bit_exactly(self, blast_reference):
        scenario = sedov_blast(levels=2)
        sim = OctoTigerSim(
            scenario.mesh, eos=scenario.eos, nodes=2,
            faults=FaultSpec(crash_locality=1, crash_step=1, seed=0),
            checkpoint_every=1,
        )
        records = sim.run(2)
        assert len(records) == 2
        assert sim.counters.total("resilience.rollbacks") >= 1
        assert sim.counters.total("resilience.checkpoints") >= 2
        _assert_conserved_match(conserved_totals(sim.mesh), blast_reference)

    def test_rollback_keeps_the_plan_cache(self, tmp_path):
        """The post-rollback integrator comes from the same construction
        helper as the first one: it still uses the persistent plan cache,
        so the replayed topology (stored by the first build) is a cache
        hit, never a second cold build."""
        scenario = sedov_blast(levels=1)
        sim = OctoTigerSim(
            scenario.mesh, eos=scenario.eos, nodes=2, plan_cache=tmp_path,
            faults=FaultSpec(crash_locality=1, crash_step=1, seed=0),
            checkpoint_every=1,
        )
        sim.run(2)
        assert sim.counters.total("resilience.rollbacks") >= 1
        assert sim.integrator.plans.cache is sim.plan_cache
        assert sim.counters.total("plan.hydro.cold_builds") == 1
        assert sim.counters.total("plan.hydro.cache_hit_builds") >= 1

    def test_crash_without_checkpoints_raises(self):
        # Recovery is on but there is nothing to roll back to: the typed
        # fault from the transport must reach the caller.
        scenario = sedov_blast(levels=2)
        sim = OctoTigerSim(
            scenario.mesh, eos=scenario.eos, nodes=2,
            faults=FaultSpec(crash_locality=1, crash_step=1, seed=0),
            recovery=RetryPolicy(timeout_s=1e-4, max_retries=2),
        )
        with pytest.raises(UnrecoverableFault):
            sim.run(1)

    def test_duplicate_storm_is_suppressed_and_counted(self, blast_reference):
        scenario = sedov_blast(levels=2)
        sim = OctoTigerSim(
            scenario.mesh, eos=scenario.eos, nodes=2,
            faults=FaultSpec(duplicate_rate=0.5, seed=4),
        )
        sim.run(2)
        assert sim.counters.total("resilience.messages_duplicated") > 0
        assert sim.counters.total("resilience.duplicates_suppressed") > 0
        _assert_conserved_match(conserved_totals(sim.mesh), blast_reference)

    def test_clean_run_under_transport_is_overhead_only(self, blast_reference):
        # An all-zero-rate schedule still routes every ghost message through
        # the ack protocol: no retransmits, no drops, same physics.
        scenario = sedov_blast(levels=2)
        sim = OctoTigerSim(
            scenario.mesh, eos=scenario.eos, nodes=2, faults=FaultSpec()
        )
        sim.run(2)
        assert sim.counters.total("resilience.acks") > 0
        assert sim.counters.total("resilience.retransmits") == 0
        assert sim.counters.total("resilience.messages_dropped") == 0
        _assert_conserved_match(conserved_totals(sim.mesh), blast_reference)


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
