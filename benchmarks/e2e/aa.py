#!/usr/bin/env python3
"""A/A study: the full ledger protocol twice on the same checkout.

    python3 benchmarks/e2e/aa.py [--seed N]

Prints, per workload and end-to-end metric, the two values, how much worse
the second is than the first, and the metric's bound; then checks that the
layer metrics that are exact counts are identical in both sets.  Writes the
report to ``benchmarks/e2e/output/aa.txt`` and exits non-zero if any pair is
outside its bound or any count differs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Tuple

import ledger
import protocol

def worsening(first: float, second: float, better: str) -> float:
    """Relative change of ``second`` against ``first``, positive = worse."""
    change = (second - first) / first
    return change if better == "lower" else -change


def compare(spec: Dict[str, Any], first: Dict[str, Any],
            second: Dict[str, Any]) -> Tuple[List[str], bool]:
    """The report lines and whether the two sets agree."""
    lines = [
        f"{'workload':<18} {'metric':<12} {'first':>14} {'second':>14} "
        f"{'worse by':>9} {'bound':>6}"
    ]
    failures = 0
    for name in first["workloads"]:
        a, b = (run["workloads"][name] for run in (first, second))
        for metric in spec["end_to_end"]:
            va, vb = (w["end_to_end"][metric["name"]] for w in (a, b))
            # Either order must hold: an A/A pair has no "change" side.
            worse = abs(worsening(va, vb, metric["better"]))
            ok = worse <= metric["bound"]
            failures += not ok
            lines.append(
                f"{name:<18} {metric['name']:<12} {va:>14.4f} {vb:>14.4f} "
                f"{worse:>8.2%} {metric['bound']:>6.0%}" + ("" if ok else "  OUTSIDE")
            )
    exact = protocol.exact_layer_metrics(spec)
    differing = []
    for name in first["workloads"]:
        for metric in exact:
            a, b = (run["workloads"][name]["per_layer"][metric] for run in (first, second))
            if a != b:
                differing.append(f"{name}: {metric} {a!r} != {b!r}")
    lines += ["", f"exact-count layer metrics compared: {len(exact)} per workload"]
    lines += differing or ["all identical in both sets"]
    for label, run in (("first", first), ("second", second)):
        manifest = run["manifest"]
        lines.append(
            f"{label}: loadavg {manifest['loadavg_start']} -> "
            f"{manifest['loadavg_end']}, steal {manifest['steal_pct']} %"
        )
    agree = not failures and not differing
    lines.append("A/A " + ("passed" if agree else "FAILED"))
    return lines, agree


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        spec = protocol.load_spec()
        seconds = float(spec["run_seconds"])
        runs = [
            ledger.collect(spec, args.seed, seconds, 2, protocol.MAX_ROUNDS)
            for _ in range(2)
        ]
    except protocol.BenchmarkError as exc:
        print(f"aa.py: {exc}", file=sys.stderr)
        return 2
    lines, agree = compare(spec, *runs)
    text = "\n".join(lines) + "\n"
    protocol.OUTPUT.mkdir(exist_ok=True)
    (protocol.OUTPUT / "aa.txt").write_text(text)
    print(text, end="")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
