"""Seeded fault schedules for the network model.

A :class:`FaultSpec` describes *what* can go wrong (per-message drop /
delay / duplication probabilities, an optional node crash); a
:class:`FaultInjector` turns it into deterministic per-message decisions.
Decisions are keyed on ``(seed, stream, message index)`` through numpy's
``SeedSequence``, so whether message ``i`` is dropped depends only on its
send index — retransmissions (which consume fresh indices) get fresh,
independent draws, and inserting a retransmission never perturbs the fate
of later messages.  ``stream`` separates timesteps, so a multi-step run
does not replay the same fault pattern every step.

:class:`UnrecoverableFault`, the typed end of every recovery path, lives
here too: this module imports nothing from ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


class UnrecoverableFault(RuntimeError):
    """A fault recovery cannot mask: retransmission gave up on a message
    (e.g. its peer crashed) or a worker process died — the driver's cue to
    roll back to a checkpoint.  The process engine
    (:mod:`repro.amt.parallel`) raises it too, and imports it from here to
    stay out of the ``repro.amt`` <-> protocol cycle."""

    def __init__(self, message: str, tag: str = "", src: int = -1, dst: int = -1,
                 attempts: int = 0) -> None:
        super().__init__(message)
        self.tag = tag
        self.src = src
        self.dst = dst
        self.attempts = attempts


@dataclass(frozen=True)
class FaultDecision:
    """What the injector decided for one message."""

    drop: bool = False
    extra_delay_s: float = 0.0
    duplicates: int = 0


@dataclass(frozen=True)
class FaultSpec:
    """Declarative fault model for the DES network.

    ``crash_locality`` models a node dying: once active, every message to
    or from that locality is dropped — retransmission cannot save it, so
    recovery requires checkpoint-restart.  ``crash_step`` limits the crash
    to one injector stream (one modelled timestep); ``-1`` means every
    step.
    """

    drop_rate: float = 0.0
    delay_rate: float = 0.0
    delay_s: float = 0.0
    duplicate_rate: float = 0.0
    seed: int = 0
    crash_locality: int = -1
    crash_step: int = -1

    def __post_init__(self) -> None:
        for name in ("drop_rate", "delay_rate", "duplicate_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.delay_s < 0.0:
            raise ValueError("delay_s must be non-negative")

    @property
    def any_random(self) -> bool:
        return (
            self.drop_rate > 0.0
            or self.delay_rate > 0.0
            or self.duplicate_rate > 0.0
        )

    def injector(self, stream: int = 0) -> "FaultInjector":
        return FaultInjector(self, stream=stream)


class FaultInjector:
    """Deterministic per-message fault decisions for a :class:`FaultSpec`.

    Conforms to the duck-typed protocol :class:`repro.amt.network.NetworkModel`
    consults on every send: ``decide(index, src, dst) -> FaultDecision``.
    """

    def __init__(self, spec: FaultSpec, stream: int = 0) -> None:
        self.spec = spec
        self.stream = stream
        self.decisions = 0
        self.drops = 0

    @property
    def crash_active(self) -> bool:
        spec = self.spec
        return spec.crash_locality >= 0 and (
            spec.crash_step < 0 or spec.crash_step == self.stream
        )

    def decide(self, index: int, src: int, dst: int) -> FaultDecision:
        spec = self.spec
        self.decisions += 1
        if self.crash_active and spec.crash_locality in (src, dst):
            self.drops += 1
            return FaultDecision(drop=True)
        if not spec.any_random:
            return FaultDecision()
        # One tiny PCG64 per message, keyed on (seed, stream, index): the
        # draw is a pure function of the message index, independent of how
        # many retransmissions were inserted before it.
        rng = np.random.default_rng([spec.seed, self.stream, index])
        u_drop, u_delay, u_dup = rng.random(3)
        if u_drop < spec.drop_rate:
            self.drops += 1
            return FaultDecision(drop=True)
        extra = spec.delay_s if u_delay < spec.delay_rate else 0.0
        duplicates = 1 if u_dup < spec.duplicate_rate else 0
        return FaultDecision(extra_delay_s=extra, duplicates=duplicates)
