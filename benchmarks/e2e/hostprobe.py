"""Host-speed probe: how much slower than nominal the machine runs right now.

The build host is a 2-core microVM on a shared machine whose speed drifts by
up to 60 % over minutes (README.md, "Why the step time is host-normalised").
The slowdown shows in user time, not in steal or system time, and it hits
every kind of code: between timed operations the benchmark therefore runs
three fixed calibration kernels — interpreter-bound, L2-resident ufuncs,
and small-array temporaries with object churn, 3 ms together — and divides the operation times of a subprocess by the kernels' mean
time relative to their nominal (quiet build host) time.

The kernels are frozen: they never call into ``src/`` and a change to the
program cannot move them.  A change to them re-bases every gated metric.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

#: Share of each operation's wall time spent probing after it.
PROBE_SHARE = 0.06
#: Probe sets run back to back at the end of set-up, before the first timed
#: operation (so even a very short window has a usable estimate).
BURST_SETS = 8
#: Nominal ms of each kernel: about its 10th percentile between the steps of
#: a workload on the quiet build host.  Only ratios between commits matter,
#: so on another machine the gated times are scaled by a constant.
NOMINAL_MS = {
    "interpreter": 1.10,
    "small_ufuncs": 1.32,
    "block_temporaries": 0.72,
}


class HostProbe:
    """Collects probe sets; ``factor()`` is the host's mean slowdown.

    Its arrays (under 1 MB) are allocated here, not at import: after the
    set-up time is taken."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20230515)
        self.small_in = rng.random(40_000)
        self.small_out = np.empty_like(self.small_in)
        self.blocks = [rng.random((12, 12, 12)) for _ in range(30)]
        self.kernels = [getattr(self, name) for name in NOMINAL_MS]
        self.kernel_s = [0.0] * len(self.kernels)
        self.sets = 0

    # -- the three kernels ------------------------------------------------------
    def interpreter(self) -> int:
        total = 0
        for i in range(20_000):
            total += i * i
        return total

    def small_ufuncs(self) -> None:
        a, out = self.small_in, self.small_out
        for _ in range(20):
            np.multiply(a, 1.0001, out=out)
            np.add(out, a, out=out)
            np.sqrt(out, out=out)

    def block_temporaries(self) -> list:
        out = []
        for block in self.blocks:
            centre = block[1:-1, 1:-1, 1:-1]
            slope = (block[2:, 1:-1, 1:-1] - block[:-2, 1:-1, 1:-1]) * 0.5
            face = np.where(slope > 0, centre + slope, centre - slope)
            out.append({"sum": float(face.sum()), "shape": face.shape})
        return out

    # -- sampling --------------------------------------------------------------
    def one_set(self) -> None:
        """Run every kernel once."""
        t0 = time.perf_counter()
        for k, kernel in enumerate(self.kernels):
            kernel()
            t1 = time.perf_counter()
            self.kernel_s[k] += t1 - t0
            t0 = t1
        self.sets += 1

    def burst(self) -> None:
        for _ in range(BURST_SETS):
            self.one_set()

    def after_op(self, op_ms: float) -> None:
        """Probe for ``PROBE_SHARE`` of the operation just timed (at least
        one set), so slow operations get as good an estimate as fast ones."""
        budget_s = PROBE_SHARE * op_ms / 1e3
        start = time.perf_counter()
        self.one_set()
        while time.perf_counter() - start < budget_s:
            self.one_set()

    def kernel_ms(self) -> Dict[str, float]:
        """Mean time of each kernel over the sets run so far."""
        return {
            name: total * 1e3 / self.sets
            for name, total in zip(NOMINAL_MS, self.kernel_s)
        }

    def factor(self) -> float:
        """Mean over the kernels of mean time / nominal time."""
        ratios = [ms / NOMINAL_MS[name] for name, ms in self.kernel_ms().items()]
        return sum(ratios) / len(ratios)
