"""Hang/deadlock modelling and message-loss fault injection."""

import math

import pytest

from repro.distsim.reliability import (
    ReliabilityModel,
    hang_probability_curve,
    messages_per_step,
)
from repro.distsim.runconfig import RunConfig
from repro.machines import FUGAKU, OOKAMI
from repro.resilience.faults import FaultSpec
from repro.scenarios import rotating_star
from repro.scenarios.spec import ScenarioSpec

from tests.oracles.reliability import empirical_hang_probability


@pytest.fixture(scope="module")
def level5():
    return rotating_star(level=5, build_mesh=False).spec


class TestMessageCounts:
    def test_single_node_sends_nothing(self, level5):
        assert messages_per_step(level5, RunConfig(machine=FUGAKU, nodes=1)) == 0.0

    def test_messages_grow_with_nodes(self, level5):
        counts = [
            messages_per_step(level5, RunConfig(machine=FUGAKU, nodes=n))
            for n in (2, 16, 128)
        ]
        assert counts[0] < counts[1] < counts[2]


class TestReliabilityModel:
    def test_calibration_round_trip(self):
        model = ReliabilityModel.calibrate(0.05, messages=1e6)
        assert model.hang_probability(1e6) == pytest.approx(0.05)

    def test_more_messages_more_hangs(self):
        model = ReliabilityModel(1e-7)
        assert model.hang_probability(1e7) > model.hang_probability(1e5)

    def test_expected_attempts(self):
        model = ReliabilityModel.calibrate(0.5, messages=100.0)
        assert model.expected_attempts(100.0) == pytest.approx(2.0)
        assert model.expected_attempts(0.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReliabilityModel.calibrate(0.0, 100.0)
        with pytest.raises(ValueError):
            ReliabilityModel.calibrate(0.5, 0.0)
        with pytest.raises(ValueError):
            ReliabilityModel(1e-9).hang_probability(-1.0)

    def test_papers_observation_extrapolates_to_fugaku_hangs(self, level5):
        """Calibrate lambda on 'about 1 out of 20 runs' deadlocking on the
        level-5 Ookami runs, then predict the hang probability of the
        larger Fugaku runs (levels 6/7 at 512-1024 nodes, ~5-20x the
        message volume) — clearly elevated, consistent with the paper
        failing to debug hangs at those scales."""
        ookami_messages = messages_per_step(
            level5, RunConfig(machine=OOKAMI, nodes=128)
        ) * 100  # a ~100-step benchmark run
        model = ReliabilityModel.calibrate(0.05, ookami_messages)

        level6 = rotating_star(level=6, build_mesh=False).spec
        level7 = rotating_star(level=7, build_mesh=False).spec
        p5 = dict(hang_probability_curve(level5, model, FUGAKU, [128], steps=100))
        p6 = dict(hang_probability_curve(level6, model, FUGAKU, [1024], steps=100))
        p7 = dict(hang_probability_curve(level7, model, FUGAKU, [1024], steps=100))
        assert p6[1024] > p5[128]
        assert p7[1024] > p6[1024]
        assert p7[1024] > 0.3  # the big runs hang more often than not-rarely


class TestFaultInjection:
    def test_lost_ghost_message_deadlocks_the_step(self, monkeypatch):
        """Lose the ghost messages of the distributed driver: the
        dependency graph stalls and the runtime reports a deadlock instead
        of silently producing wrong data — the paper's hang, reproduced in
        miniature on the real step program."""
        from tests.test_distributed_driver import build_mesh
        import repro.core.distributed as distributed
        from repro.machines import FUGAKU as M

        mesh, eos = build_mesh()
        driver = distributed.DistributedHydroDriver(
            mesh, eos, config=RunConfig(machine=M, nodes=2)
        )
        original = distributed.virtual_machine

        def sabotaged(*args):
            workers, core_rate, net = original(*args)
            net.fault_injector = FaultSpec(drop_rate=1.0).injector()
            return workers, core_rate, net

        monkeypatch.setattr(distributed, "virtual_machine", sabotaged)
        with pytest.raises(RuntimeError, match="deadlock|never resolved"):
            driver.step(1e-3)

    def test_network_drop_accounting(self):
        from repro.amt.engine import Engine
        from repro.amt.network import Message, NetworkModel

        engine = Engine()
        net = NetworkModel()
        delivered = []
        net.send(engine, Message(0, 1, "a", 10), lambda m: delivered.append(m))
        net.fault_injector = FaultSpec(drop_rate=1.0).injector()
        net.send(engine, Message(0, 1, "b", 10), lambda m: delivered.append(m))
        engine.run()
        assert [m.payload for m in delivered] == ["a"]
        assert net.messages_dropped == 1
        assert net.messages_sent == 2


class TestMonteCarloCrossValidation:
    """The closed-form hang model vs actual injected-fault runs.

    ``empirical_hang_probability`` executes the step task graph once per
    seed under a Bernoulli(p) per-message drop schedule with no recovery:
    any lost ghost message wedges the graph and the watchdog reports a
    deadlock.  The observed hang fraction must sit on the analytic
    ``P(hang) = 1 - (1-p)^M`` curve evaluated at the *measured* message
    count — the paper's "1 out of 20 runs deadlock" observation, turned
    into a checked prediction.
    """

    SPEC = ScenarioSpec(name="mc", n_subgrids=8, max_level=1)
    CONFIG = RunConfig(machine=FUGAKU, nodes=4)

    def test_hang_fraction_matches_analytic_curve(self):
        result = empirical_hang_probability(
            self.SPEC, self.CONFIG, drop_rate=0.01, seeds=range(60)
        )
        # Meaningful sample: some runs hang, some survive.
        assert 0 < result.hangs < result.runs
        predicted = result.predicted_hang_probability(0.01)
        # 60 seeded runs at p~0.38: binomial sigma ~ 0.063; the schedule is
        # deterministic, so 0.12 (~2 sigma) only guards implementation drift.
        assert abs(result.hang_fraction - predicted) < 0.12

    def test_higher_drop_rate_hangs_more(self):
        low = empirical_hang_probability(
            self.SPEC, self.CONFIG, drop_rate=0.002, seeds=range(40)
        )
        high = empirical_hang_probability(
            self.SPEC, self.CONFIG, drop_rate=0.05, seeds=range(40)
        )
        assert low.hang_fraction < high.hang_fraction
        assert high.hang_fraction > 0.5  # 1-(1-.05)^48 ~ 0.91

    def test_analytic_message_count_brackets_the_measured_one(self):
        """:func:`messages_per_step` counts every RK stage's ghost faces
        analytically; the executed task graph batches the exchange, so the
        two agree to a small documented factor, not exactly.  Keeping them
        within [1x, 6x] pins the scale of the model without overfitting."""
        result = empirical_hang_probability(
            self.SPEC, self.CONFIG, drop_rate=0.01, seeds=range(1)
        )
        analytic = messages_per_step(self.SPEC, self.CONFIG)
        measured = result.messages_per_clean_step
        assert measured > 0
        assert measured <= analytic <= 6 * measured
