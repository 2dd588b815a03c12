"""Network model: transfer times, FIFO ordering, accounting."""

import pytest

from repro.amt.engine import Engine
from repro.amt.network import Message, NetworkModel
from repro.resilience.faults import FaultSpec


class TestTransferTime:
    def test_latency_plus_bandwidth(self):
        net = NetworkModel(latency_s=1e-6, bandwidth_Bps=1e9, action_overhead_s=0.0)
        assert net.transfer_time(1_000_000) == pytest.approx(1e-6 + 1e-3)

    def test_action_overhead_included(self):
        net = NetworkModel(latency_s=1e-6, bandwidth_Bps=1e9, action_overhead_s=2e-6)
        assert net.transfer_time(0) == pytest.approx(3e-6)

    def test_local_path_skips_latency(self):
        net = NetworkModel(latency_s=100e-6, local_copy_Bps=1e9, action_overhead_s=1e-6)
        assert net.transfer_time(1000, local=True) == pytest.approx(1e-6 + 1e-6)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel().transfer_time(-1)


class TestDelivery:
    def test_message_delivered_with_payload(self):
        engine = Engine()
        net = NetworkModel()
        received = []
        net.send(engine, Message(0, 1, {"x": 1}, 128), received.append)
        engine.run()
        assert received[0].payload == {"x": 1}

    def test_fifo_per_pair(self):
        # A big slow message sent first must arrive before a small fast one.
        engine = Engine()
        net = NetworkModel(latency_s=1e-6, bandwidth_Bps=1e6)
        order = []
        net.send(engine, Message(0, 1, "big", 10_000_000, tag="big"),
                 lambda m: order.append(m.tag))
        net.send(engine, Message(0, 1, "small", 1, tag="small"),
                 lambda m: order.append(m.tag))
        engine.run()
        assert order == ["big", "small"]

    def test_different_pairs_not_serialised(self):
        engine = Engine()
        net = NetworkModel(latency_s=1e-6, bandwidth_Bps=1e6)
        order = []
        net.send(engine, Message(0, 1, None, 10_000_000, tag="slow01"),
                 lambda m: order.append(m.tag))
        net.send(engine, Message(2, 1, None, 1, tag="fast21"),
                 lambda m: order.append(m.tag))
        engine.run()
        assert order == ["fast21", "slow01"]

    def test_accounting(self):
        engine = Engine()
        net = NetworkModel()
        net.send(engine, Message(0, 1, None, 100), lambda m: None)
        net.send(engine, Message(1, 0, None, 300), lambda m: None)
        engine.run()
        assert net.messages_sent == 2
        assert net.bytes_sent == 400


class TestSeededDrops:
    def test_rate_schedule_is_reproducible(self):
        def run(seed):
            engine = Engine()
            net = NetworkModel()
            net.fault_injector = FaultSpec(drop_rate=0.3, seed=seed).injector()
            fates = []
            for i in range(50):
                net.send(engine, Message(0, 1, i, 10),
                         lambda m: fates.append(m.payload))
            engine.run()
            return tuple(fates), net.messages_dropped

        first, dropped_a = run(seed=5)
        again, dropped_b = run(seed=5)
        other, _ = run(seed=6)
        assert first == again
        assert dropped_a == dropped_b
        assert first != other  # another seed draws another schedule
        assert 0 < dropped_a < 50
        assert len(first) + dropped_a == 50
