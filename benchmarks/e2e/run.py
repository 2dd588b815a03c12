#!/usr/bin/env python3
"""End-to-end step ledger of ``OctoTigerSim``: four pinned workloads.

Two ways to run it, both from the repository root:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload.  The last stdout line is one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
    ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
    ``--trace 1``.

``python3 benchmarks/e2e/run.py [--seed N] [--smoke]``
    The ledger: every workload untraced, then traced; prints every metric by
    name with its unit and the per-layer tables, and writes
    ``benchmarks/e2e/output/e2e.json`` and ``e2e.txt``.

Every measurement runs in fresh subprocesses (``child.py``); this file needs
only the standard library.  Exit code 0 means every output check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import ledger
import protocol


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (driver contract)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="level-1 meshes, one round, one second: same code path")
    args = parser.parse_args(argv)

    try:
        spec = protocol.load_spec()
        names = [w["name"] for w in spec["workloads"]]
        level = 1 if args.smoke else 2
        rounds = 1 if args.smoke else protocol.MAX_ROUNDS
        seconds = args.seconds
        if seconds is None:
            seconds = 1.0 if args.smoke else float(spec["run_seconds"])
        if args.workload is None:
            return ledger.run(spec, args.seed, seconds, level, rounds, args.smoke)
        if args.workload not in names:
            raise protocol.BenchmarkError(
                f"unknown workload {args.workload!r}; one of {names}"
            )
        result = protocol.run_workload(
            spec, args.workload, args.seed, seconds, args.trace, level, rounds
        )
    except protocol.BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
