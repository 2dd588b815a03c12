"""Inter-locality network model.

Transfers between localities incur ``latency + size / bandwidth`` plus a
per-message serialization overhead (the HPX "action" overhead the paper's
communication optimization removes for on-node neighbours).  Messages
between a given ordered pair of localities are delivered FIFO, matching MPI
ordering guarantees for a (comm, tag) channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

from repro.amt.engine import Engine


@dataclass
class Message:
    """A payload in flight between two localities."""

    src: int
    dst: int
    payload: Any
    size_bytes: int
    tag: str = ""


@dataclass
class NetworkModel:
    """Latency/bandwidth network with per-message overhead.

    Defaults approximate a commodity InfiniBand fabric; machine presets in
    :mod:`repro.machines` override them (Tofu-D, Aries, Slingshot...).
    ``action_overhead`` models serialization + remote-action dispatch cost on
    top of the wire time; the local-communication optimization of the paper
    (Fig. 8) bypasses it for same-locality transfers.
    """

    latency_s: float = 1.5e-6
    bandwidth_Bps: float = 12.5e9  # 100 Gbit/s
    action_overhead_s: float = 1.0e-6
    local_copy_Bps: float = 50e9  # same-node memcpy bandwidth
    name: str = "generic-ib"

    #: Per ordered (src, dst) pair: virtual time the last message arrives,
    #: used to enforce FIFO delivery.
    _last_delivery: Dict[Tuple[int, int], float] = field(default_factory=dict)
    messages_sent: int = 0
    bytes_sent: int = 0
    messages_dropped: int = 0
    #: Optional message-loss schedule consulted on every send — the fault
    #: injection behind the deadlock studies (the paper saw Octo-Tiger hang
    #: under Fujitsu MPI at scale and deadlock 1-in-20 on Ookami; a lost
    #: ghost message stalls the dependency graph exactly like that).
    #: Duck-typed: any object with ``drops(index) -> bool`` (see
    #: :class:`repro.resilience.faults.FaultInjector`).
    fault_injector: Any = None

    def transfer_time(self, size_bytes: int, local: bool = False) -> float:
        """Wire time for a message of ``size_bytes``."""
        if size_bytes < 0:
            raise ValueError("negative message size")
        if local:
            return self.action_overhead_s + size_bytes / self.local_copy_Bps
        return (
            self.latency_s
            + self.action_overhead_s
            + size_bytes / self.bandwidth_Bps
        )

    def send(
        self,
        engine: Engine,
        message: Message,
        on_delivery: Callable[[Message], None],
        local: bool = False,
    ) -> float:
        """Schedule delivery of ``message``; returns the delivery time.

        A message the fault injector drops is counted and charged but never
        delivered (returns ``inf``).
        """
        index = self.messages_sent
        self.messages_sent += 1
        self.bytes_sent += message.size_bytes
        if self.fault_injector is not None and self.fault_injector.drops(index):
            self.messages_dropped += 1
            return float("inf")
        arrival = engine.now + self.transfer_time(message.size_bytes, local=local)
        key = (message.src, message.dst)
        # FIFO per ordered pair: never deliver before an earlier message.
        arrival = max(arrival, self._last_delivery.get(key, 0.0))
        self._last_delivery[key] = arrival
        engine.post_at(arrival, lambda: on_delivery(message))
        return arrival
