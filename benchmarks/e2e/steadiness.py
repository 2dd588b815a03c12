#!/usr/bin/env python3
"""Steadiness study: the contract's command on ten seeds per workload.

    python3 benchmarks/e2e/steadiness.py [--seeds 10]

For every workload and end-to-end metric: the median of the runs and their
spread, (Q3 - Q1) / median with ``statistics.quantiles(values, n=4)``, next
to the metric's bound; and the same for the raw p10 step time and the host
factor, to show what the normalisation removes.  Seeds go round-robin over
the workloads, so each workload's runs span the whole study (~15 min) and
see the host's drift.  Writes ``benchmarks/e2e/output/steadiness.txt``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from typing import Dict, List, Optional

import hostinfo
import protocol


def spread(values: List[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)
    try:
        spec = protocol.load_spec()
        names = [w["name"] for w in spec["workloads"]]
        seconds = float(spec["run_seconds"])
        values: Dict[str, Dict[str, List[float]]] = {name: {} for name in names}
        correct = True
        for seed in range(1, args.seeds + 1):
            for name in names:
                children = protocol.run_rounds(
                    name, seed, seconds, 2, protocol.MAX_ROUNDS
                )
                correct = correct and protocol.summarize(children)["correct"]
                pooled = protocol.pool_rounds(children)
                row = dict(pooled["metrics"])
                row["(raw step p10)"] = pooled["spread"]["step_ms_raw_p10"]
                row["(host factor)"] = statistics.mean(pooled["spread"]["host_factor"])
                for metric, value in row.items():
                    values[name].setdefault(metric, []).append(value)
                print(f"seed {seed} {name}: " + ", ".join(
                    f"{m} {v:.4g}" for m, v in row.items()
                ), flush=True)
    except protocol.BenchmarkError as exc:
        print(f"steadiness.py: {exc}", file=sys.stderr)
        return 2

    lines = [
        f"{args.seeds} seeds per workload, round-robin; "
        f"loadavg at the end {hostinfo.read_text('/proc/loadavg')}",
        f"{'workload':<18} {'metric':<16} {'median':>12} {'min':>12} {'max':>12} "
        f"{'spread':>7} {'bound':>6}",
    ]
    bounds = {m["name"]: f"{m['bound']:.2f}" for m in spec["end_to_end"]}
    for name in names:
        for metric, runs in values[name].items():
            lines.append(
                f"{name:<18} {metric:<16} {statistics.median(runs):>12.4f} "
                f"{min(runs):>12.4f} {max(runs):>12.4f} {spread(runs):>7.3f} "
                f"{bounds.get(metric, '-'):>6}"
            )
    lines.append("every output check passed" if correct else "an output check FAILED")
    text = "\n".join(lines) + "\n"
    protocol.OUTPUT.mkdir(exist_ok=True)
    (protocol.OUTPUT / "steadiness.txt").write_text(text)
    print(text, end="")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
