"""The benchmark's statistics (stdlib only; shared by parent and child)."""

from __future__ import annotations

from typing import List, Sequence

#: The gated quantile of per-operation wall time.  Interference on a shared
#: host is one-sided (it only ever adds time), so a low quantile repeats far
#: better than the median; see README.md, "Why p10".
GATED_QUANTILE = 0.10


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    position = q * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def phase_mean(samples: List[List[float]], q: float) -> float:
    """Quantile ``q`` of each phase's samples, averaged over the phases.

    A steady workload has one phase.  The regrid workload has one per window
    position; averaging the per-position quantiles is "cycle wall / 2" with
    the quantile taken where the samples are comparable.
    """
    return sum(quantile(phase, q) for phase in samples) / len(samples)


def step_ms_of(samples: List[List[float]]) -> float:
    return phase_mean(samples, GATED_QUANTILE)
