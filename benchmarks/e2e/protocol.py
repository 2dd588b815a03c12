"""The measurement protocol: fresh subprocesses, pooled per-step samples.

Shared by ``run.py`` (one workload, the driver's contract), ``ledger.py`` (all
of them, one report) and ``aa.py``.  Stdlib only: the numerical work happens
in ``child.py`` subprocesses.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import hostinfo
from stats import phase_mean, step_ms_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUTPUT = HERE / "output"
#: At most this many fresh subprocesses per untraced run.  A subprocess
#: measures until the run's time is used up or its problem leaves its valid
#: range (a blast run ends after 120 steps); while more than
#: ``MIN_ROUND_S`` of the time is left another one starts.  Every one pays
#: the full set-up; ``setup_s`` is their median, per-step samples are pooled
#: over them and peak RSS is their maximum.
MAX_ROUNDS = 3
MIN_ROUND_S = 3.0
CHILD_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``; also refuses to run without the program."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists() or not (ROOT / "src" / "repro" / "core").is_dir():
        raise BenchmarkError(
            f"needs BENCHMARK.json and src/repro under the repository root {ROOT}"
        )
    return json.loads(spec_path.read_text())


def exact_layer_metrics(spec: Dict[str, Any]) -> List[str]:
    """Per-layer metrics whose values must repeat exactly between runs of
    one seed: counts and computed sizes, minus the two that count what a
    time-boxed run happened to do."""
    units = ("count", "1/regrid", "B", "virtual_ms")
    varying = ("core.step_samples", "mem.minflt_per_step")
    return [
        m["name"] for m in spec["per_layer"]
        if m["unit"] in units and m["name"] not in varying
    ]


def run_child(workload: str, seed: int, seconds: float, trace: int,
              level: int) -> Dict[str, Any]:
    """Run one workload subprocess to completion; its parsed result line."""
    env = dict(os.environ)
    env.update(hostinfo.CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--trace", str(trace), "--level", str(level),
        "--spawned-at", repr(time.time()), "--out-dir", str(OUTPUT),
    ]
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise BenchmarkError(f"{workload}: subprocess exceeded {CHILD_TIMEOUT_S} s")
    if process.returncode != 0:
        raise BenchmarkError(f"{workload}: subprocess exited {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def pool_rounds(children: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine the untraced subprocesses of one workload.

    Every subprocess's times are divided by its own host factor (the mean
    slowdown of the calibration kernels it ran between its operations, see
    ``hostprobe.py``) before they are pooled: the two subprocesses of a run
    can see the host at different speeds."""
    phases = len(children[0]["samples_ms"])
    pooled = [
        [ms / child["host_factor"] for child in children
         for ms in child["samples_ms"][p]]
        for p in range(phases)
    ]
    raw = [
        [ms for child in children for ms in child["samples_ms"][p]]
        for p in range(phases)
    ]
    cells = children[0]["counts"]["octree.cells"]
    step_ms = step_ms_of(pooled)
    return {
        "metrics": {
            "step_ms": step_ms,
            "cells_per_s": cells * 1e3 / step_ms,
            "setup_s": statistics.median(
                c["setup_s"] / c["host_factor"] for c in children
            ),
            "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
        },
        "spread": {
            "host_factor": [c["host_factor"] for c in children],
            "step_ms_raw_p10": step_ms_of(raw),
            "step_ms_raw_p50": phase_mean(raw, 0.5),
            "step_ms_raw_p90": phase_mean(raw, 0.9),
            "setup_s_raw": [c["setup_s"] for c in children],
            "samples": sum(len(p) for p in pooled),
        },
    }


def run_rounds(workload: str, seed: int, seconds: float, level: int,
               max_rounds: int) -> List[Dict[str, Any]]:
    """The untraced subprocesses of one run: together they measure for
    ``seconds`` (a little more when the last operation overruns)."""
    children: List[Dict[str, Any]] = []
    left = seconds
    while len(children) < max_rounds and (not children or left > MIN_ROUND_S):
        children.append(run_child(workload, seed, left, 0, level))
        left -= children[-1]["window_s"]
    return children


def summarize(children: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {
        "correct": all(c["correct"] for c in children),
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
    }


def run_workload(spec: Dict[str, Any], workload: str, seed: int, seconds: float,
                 trace: int, level: int, rounds: int) -> Dict[str, Any]:
    """One ``--workload`` invocation: the contract's result object."""
    if trace:
        children = [run_child(workload, seed, seconds, 1, level)]
        values = children[0]["layers"]
        declared = spec["per_layer"]
    else:
        children = run_rounds(workload, seed, seconds, level, rounds)
        values = pool_rounds(children)["metrics"]
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"{workload}: metrics not measured: {missing}")
    result = summarize(children)
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    return result
