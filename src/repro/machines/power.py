"""Node power model (the PowerAPI measurement analog, Table II).

Per-node power is idle plus a dynamic part proportional to utilisation and
to the cube of the clock relative to the reference frequency (the classic
P ~ C V^2 f with voltage scaling ~ f).  Fugaku's power-control function — the
default 1.8 GHz "eco" clock versus the 2.2 GHz boost the paper discusses in
SVI-A — enters through the frequency term.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PowerModel:
    idle_w: float
    peak_w: float
    reference_freq_ghz: float

    def node_power(self, utilization: float, freq_ghz: float = None) -> float:  # noqa: RUF013
        """Average node power (W) at a given core utilisation and clock."""
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization must be in [0, 1], got {utilization}")
        freq = self.reference_freq_ghz if freq_ghz is None else freq_ghz
        scale = (freq / self.reference_freq_ghz) ** 3
        return self.idle_w + (self.peak_w - self.idle_w) * utilization * scale

