"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Outside tier-1's ``testpaths``: it runs ``run.py --smoke`` twice (level-1
meshes, one round, one second per workload; the same code path as the real
ledger) and checks the benchmark's own contract, not the program's speed.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import protocol  # noqa: E402

ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def shm_segments() -> set:
    shm = Path("/dev/shm")
    return set(os.listdir(shm)) if shm.is_dir() else set()


def child_processes() -> list:
    """Command lines of live processes started from this benchmark."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit() and int(entry.name) != os.getpid():
            try:
                cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
            except OSError:
                continue
            if str(HERE / "child.py") in cmdline:
                found.append(cmdline)
    return found


def smoke_run() -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads((HERE / "output" / "smoke.json").read_text())


@pytest.fixture(scope="module")
def runs():
    before = shm_segments()
    results = [smoke_run(), smoke_run()]
    return {"results": results, "shm_before": before}


def test_metric_names_are_plain():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)


def test_every_declared_metric_is_emitted(runs):
    for result in runs["results"]:
        assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
        for workload in result["workloads"].values():
            for kind in ("end_to_end", "per_layer"):
                for metric in SPEC[kind]:
                    value = workload[kind][metric["name"]]
                    assert isinstance(value, (int, float)), metric["name"]


def test_exact_counts_repeat(runs):
    first, second = runs["results"]
    exact = protocol.exact_layer_metrics(SPEC)
    for name, workload in first["workloads"].items():
        other = second["workloads"][name]["per_layer"]
        for metric in exact:
            assert workload["per_layer"][metric] == other[metric], (name, metric)


def test_outputs_correct_and_closure_holds(runs):
    for result in runs["results"]:
        for name, workload in result["workloads"].items():
            assert workload["correct"] and workload["failed"] == 0, name
            assert workload["checks"]["traced"]["closure"]["ok"], name


def test_layers_isolated(runs):
    """Each workload exercises its own layers and leaves the others idle."""
    layers = {n: w["per_layer"] for n, w in runs["results"][0]["workloads"].items()}
    for name in ("blast_l2_hydro", "blast_l2_process"):
        assert layers[name]["gravity.solve_ms"] == 0
    for name, metrics in layers.items():
        regrids = name == "dwd_l2_regrid"
        assert (metrics["plan.hydro.delta_builds"] > 0) == regrids, name
        assert (metrics["octree.regrid_ms"] > 0) == regrids, name
        assert (metrics["amt.compute_ms"] > 0) == (name == "blast_l2_process"), name


def test_nothing_left_behind(runs):
    assert shm_segments() <= runs["shm_before"]
    assert child_processes() == []
    assert not list((HERE / "output").glob("tmp-*"))
