"""Seeded message-loss schedules for the network model.

A :class:`FaultSpec` is a per-message drop probability and a seed; a
:class:`FaultInjector` turns it into deterministic per-message decisions.
Decisions are keyed on ``(seed, stream, message index)`` through numpy's
``SeedSequence``, so whether message ``i`` is dropped depends only on its
send index.  ``stream`` separates timesteps, so a multi-step run does not
replay the same drop pattern every step.  This is the fault model behind
the Monte Carlo hang oracle: one lost ghost message wedges the step, the
paper's unrecovered hang.

:class:`UnrecoverableFault`, the typed fault the real driver rolls back
on, lives here too: this module imports nothing from ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class UnrecoverableFault(RuntimeError):
    """A fault the step cannot mask: a dead or silent worker process.

    It is the driver's cue to roll back to a checkpoint.  The process
    engine (:mod:`repro.amt.parallel`) raises it, and imports it from here
    to stay out of a ``repro.amt`` <-> ``repro.resilience`` cycle."""


@dataclass(frozen=True)
class FaultSpec:
    """Declarative message-loss model for the DES network."""

    drop_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError(f"drop_rate must be in [0, 1], got {self.drop_rate}")

    def injector(self, stream: int = 0) -> "FaultInjector":
        return FaultInjector(self, stream=stream)


class FaultInjector:
    """Deterministic per-message drop decisions for a :class:`FaultSpec`.

    Conforms to the duck-typed protocol :class:`repro.amt.network.NetworkModel`
    consults on every send: ``drops(index) -> bool``.
    """

    def __init__(self, spec: FaultSpec, stream: int = 0) -> None:
        self.spec = spec
        self.stream = stream

    def drops(self, index: int) -> bool:
        spec = self.spec
        if spec.drop_rate <= 0.0:
            return False
        # One tiny PCG64 per message, keyed on (seed, stream, index): the
        # draw is a pure function of the message index.
        rng = np.random.default_rng([spec.seed, self.stream, index])
        return bool(rng.random() < spec.drop_rate)
