"""Acknowledged delivery with retransmission over the lossy network model.

The raw :class:`~repro.amt.network.NetworkModel` is fire-and-forget, like
the MPI layer under HPX's parcelport: a dropped message silently stalls
whatever depended on it.  :class:`ReliableTransport` layers the standard
reliable-delivery protocol on top:

* every data packet carries a per-ordered-pair **sequence number**;
* the receiver **acks** each packet (acks cross the same faulty network);
* the sender runs a **per-message timeout** and retransmits with
  exponential backoff until acked or ``max_retries`` is exhausted, at
  which point it raises a typed :class:`UnrecoverableFault` (the driver's
  cue to roll back to a checkpoint);
* the receiver **dedups** (retransmissions and duplicated wire packets
  deliver exactly once) and **reorders**: packets are handed to the
  application strictly in sequence order, so the network's per-pair FIFO
  contract survives retransmission.

Everything runs on the virtual clock, so the protocol is bit-deterministic
for a given fault schedule — which is what makes the chaos tests exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.amt.engine import Engine, EventHandle
from repro.amt.network import Message, NetworkModel
from repro.resilience.faults import UnrecoverableFault


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout and backoff schedule for acknowledged sends.

    ``timeout_s=None`` derives the initial timeout from the network's own
    constants: a few data+ack round trips, so healthy traffic almost never
    retransmits spuriously while lost messages are detected quickly.
    """

    timeout_s: Optional[float] = None
    backoff: float = 2.0
    max_retries: int = 6
    ack_bytes: int = 64

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def initial_timeout(self, network: NetworkModel, size_bytes: int,
                        local: bool = False) -> float:
        if self.timeout_s is not None:
            return self.timeout_s
        round_trip = network.transfer_time(size_bytes, local=local) + \
            network.transfer_time(self.ack_bytes, local=local)
        return 4.0 * round_trip


@dataclass
class TransportStats:
    """Protocol counters, mirrored into ``resilience.*`` profiling counters."""

    packets_sent: int = 0
    packets_delivered: int = 0
    retransmits: int = 0
    acks_received: int = 0
    duplicates_suppressed: int = 0
    reordered: int = 0
    failures: int = 0


class _Outstanding:
    """Sender-side record of one unacknowledged packet."""

    __slots__ = ("seq", "message", "on_delivery", "local", "acked",
                 "attempts", "timer")

    def __init__(self, seq: int, message: Message,
                 on_delivery: Callable[[Message], None], local: bool) -> None:
        self.seq = seq
        self.message = message
        self.on_delivery = on_delivery
        self.local = local
        self.acked = False
        self.attempts = 0
        self.timer: Optional[EventHandle] = None


class ReliableTransport:
    """Acknowledged, deduplicated, FIFO message delivery.

    Drop-in for ``NetworkModel.send`` call sites: ``send(engine-less)`` —
    the engine is bound at construction since timeouts need the clock.
    """

    def __init__(
        self,
        network: NetworkModel,
        engine: Engine,
        policy: Optional[RetryPolicy] = None,
        counters: Any = None,
    ) -> None:
        self.network = network
        self.engine = engine
        self.policy = policy or RetryPolicy()
        #: Optional CounterRegistry receiving live ``resilience.*`` samples.
        self.counters = counters
        self.stats = TransportStats()
        self._next_seq: Dict[Tuple[int, int], int] = {}
        self._outstanding: Dict[Tuple[int, int, int], _Outstanding] = {}
        # Receiver side, per ordered pair: next sequence number to deliver
        # and the reorder buffer of packets that arrived early.
        self._expected: Dict[Tuple[int, int], int] = {}
        self._reorder: Dict[Tuple[int, int], Dict[int, _Outstanding]] = {}

    # -- sending ------------------------------------------------------------
    def send(
        self,
        message: Message,
        on_delivery: Callable[[Message], None],
        local: bool = False,
    ) -> None:
        """Send ``message`` reliably; ``on_delivery`` fires exactly once, in
        per-pair FIFO order, once the packet survives the network."""
        pair = (message.src, message.dst)
        seq = self._next_seq.get(pair, 0)
        self._next_seq[pair] = seq + 1
        entry = _Outstanding(seq, message, on_delivery, local)
        self._outstanding[(message.src, message.dst, seq)] = entry
        self._transmit(entry)

    def _transmit(self, entry: _Outstanding) -> None:
        message = entry.message
        self.stats.packets_sent += 1
        entry.attempts += 1
        seq = entry.seq
        self.network.send(
            self.engine,
            Message(
                src=message.src,
                dst=message.dst,
                payload=("data", seq, message.payload),
                size_bytes=message.size_bytes,
                tag=message.tag,
                control=message.control,
            ),
            lambda _m, e=entry: self._on_packet(e),
            local=entry.local,
        )
        timeout = self.policy.initial_timeout(
            self.network, message.size_bytes, local=entry.local
        ) * (self.policy.backoff ** (entry.attempts - 1))
        entry.timer = self.engine.post(
            timeout, lambda e=entry: self._on_timeout(e), cancellable=True
        )

    def _on_timeout(self, entry: _Outstanding) -> None:
        if entry.acked:
            return
        if entry.attempts > self.policy.max_retries:
            self.stats.failures += 1
            message = entry.message
            raise UnrecoverableFault(
                f"message {message.tag!r} {message.src}->{message.dst} "
                f"seq={entry.seq} undelivered after {entry.attempts} attempts "
                f"(retries exhausted); last resort is checkpoint-restart",
                tag=message.tag,
                src=message.src,
                dst=message.dst,
                attempts=entry.attempts,
            )
        self.stats.retransmits += 1
        if self.counters is not None:
            self.counters.increment("resilience.retransmits")
        self._transmit(entry)

    # -- receiving ----------------------------------------------------------
    def _on_packet(self, entry: _Outstanding) -> None:
        """A data packet (possibly a duplicate) reached the destination."""
        message = entry.message
        pair = (message.src, message.dst)
        seq = entry.seq
        self._send_ack(entry)
        expected = self._expected.get(pair, 0)
        buffer = self._reorder.setdefault(pair, {})
        if seq < expected or seq in buffer:
            # Retransmission of something already delivered/buffered (the
            # ack was lost or slow, or the wire duplicated the packet).
            self.stats.duplicates_suppressed += 1
            return
        buffer[seq] = entry
        if seq != expected:
            self.stats.reordered += 1
        while expected in buffer:
            ready = buffer.pop(expected)
            expected += 1
            self._expected[pair] = expected
            self.stats.packets_delivered += 1
            ready.on_delivery(ready.message)

    def _send_ack(self, entry: _Outstanding) -> None:
        message = entry.message
        self.network.send(
            self.engine,
            Message(
                src=message.dst,
                dst=message.src,
                payload=("ack", entry.seq),
                size_bytes=self.policy.ack_bytes,
                tag="ack",
                control=True,
            ),
            lambda _m, e=entry: self._on_ack(e),
            local=entry.local,
        )

    def _on_ack(self, entry: _Outstanding) -> None:
        if entry.acked:
            return
        entry.acked = True
        self.stats.acks_received += 1
        if self.counters is not None:
            self.counters.increment("resilience.acks")
        if entry.timer is not None:
            entry.timer.cancel()
        message = entry.message
        self._outstanding.pop((message.src, message.dst, entry.seq), None)

    # -- introspection -------------------------------------------------------
    def in_flight(self) -> int:
        """Unacknowledged packets (pending futures the watchdog can name)."""
        return len(self._outstanding)
