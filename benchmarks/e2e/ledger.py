"""The ledger: every workload untraced and traced, as one report.

``collect`` runs the protocol and returns everything as one dict (what
``output/e2e.json`` holds); ``render`` turns it into the text report
(``output/e2e.txt``).  Stdlib only, like ``run.py``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

import hostinfo
import protocol


def collect(spec: Dict[str, Any], seed: int, seconds: float, level: int,
            rounds: int) -> Dict[str, Any]:
    """Per workload: the untraced subprocesses, then one traced run."""
    names = [w["name"] for w in spec["workloads"]]
    manifest = hostinfo.manifest(protocol.ROOT)
    manifest.update(seed=seed, max_rounds=rounds, seconds=seconds, level=level)
    jiffies0 = hostinfo.cpu_jiffies()

    workloads: Dict[str, Any] = {}
    for name in names:
        children = protocol.run_rounds(name, seed, seconds, level, rounds)
        traced = protocol.run_child(name, seed, seconds, 1, level)
        pooled = protocol.pool_rounds(children)
        summary = protocol.summarize(children + [traced])
        workloads[name] = {
            **summary,
            "end_to_end": pooled["metrics"],
            "spread": pooled["spread"],
            "per_layer": traced["layers"],
            "layer_table": traced["layer_table"],
            "checks": {
                "untraced": [c["checks"] for c in children], "traced": traced["checks"],
            },
            "state_sha256": [c["state_sha256"] for c in children],
            "steps_taken": [c["steps_taken"] for c in children],
            "setup_parts_s": [c["setup_parts_s"] for c in children],
            "oversubscribed": traced["oversubscribed"],
            "trace_file": traced["trace_file"],
        }
        manifest["versions"] = traced["versions"]
    manifest["loadavg_end"] = hostinfo.read_text("/proc/loadavg")
    manifest["steal_pct"] = hostinfo.steal_pct(jiffies0, hostinfo.cpu_jiffies())
    manifest["samples"] = {n: w["spread"]["samples"] for n, w in workloads.items()}
    return {"manifest": manifest, "workloads": workloads}


def _failed_checks(workload: Dict[str, Any]) -> List[str]:
    groups = workload["checks"]["untraced"] + [workload["checks"]["traced"]]
    return sorted({
        f"{name} = {check['value']!r} (limit {check['limit']!r})"
        for group in groups for name, check in group.items() if not check["ok"]
    })


def render(spec: Dict[str, Any], data: Dict[str, Any]) -> str:
    lines = ["== manifest =="]
    lines += [f"{key}: {value}" for key, value in data["manifest"].items()]

    lines += ["", "== end-to-end (gated; step_ms is the p10 of per-step wall time / host factor) =="]
    for name, workload in data["workloads"].items():
        status = "unmeasured (fewer usable cores than workers)" if (
            workload["oversubscribed"]
        ) else "measured"
        spread = workload["spread"]
        lines.append(
            f"{name}: {status}; {spread['samples']} samples, raw (not normalised) "
            f"p10 {spread['step_ms_raw_p10']:.1f} ms, p50 {spread['step_ms_raw_p50']:.1f} ms, "
            f"p90 {spread['step_ms_raw_p90']:.1f} ms; host factor "
            + "/".join(f"{h:.3f}" for h in spread["host_factor"]) + "; "
            f"failed {workload['failed']}/{workload['attempted']}"
        )
        for metric in spec["end_to_end"]:
            value = workload["end_to_end"][metric["name"]]
            lines.append(
                f"  {metric['name']:<14} {value:>14.4f} {metric['unit']:<8} "
                f"({metric['better']} is better, bound {metric['bound']:.0%})"
            )
        walls = ", ".join(
            f"{p['wall']:.2f} (sys {p['sys']:.2f})" for p in workload["setup_parts_s"]
        )
        lines.append(f"  set-up wall s  {walls} (informational)")
        lines.append(f"  state_sha256   {workload['state_sha256'][0]} (informational)")

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, workload in data["workloads"].items():
        lines += ["", f"== {name}: where one operation goes (traced run) =="]
        for row, ms, pct in workload["layer_table"]:
            if ms:
                lines.append(f"  {row:<28} {ms:>10.3f} ms {pct:>6.2f} %")
        lines.append(f"-- {name}: per-layer metrics --")
        for metric, value in workload["per_layer"].items():
            lines.append(f"  {metric:<34} {value:>16.6g} {units.get(metric, '?')}")

    lines += ["", "== output checks =="]
    for name, workload in data["workloads"].items():
        failed = _failed_checks(workload)
        lines.append(f"{name}: " + ("all passed" if not failed else "FAILED"))
        lines += [f"  {line}" for line in failed]
    return "\n".join(lines) + "\n"


def run(spec: Dict[str, Any], seed: int, seconds: float, level: int, rounds: int,
        smoke: bool) -> int:
    data = collect(spec, seed, seconds, level, rounds)
    text = render(spec, data)
    stem = "smoke" if smoke else "e2e"
    out: Path = protocol.OUTPUT
    out.mkdir(exist_ok=True)
    (out / f"{stem}.json").write_text(json.dumps(data, indent=1) + "\n")
    (out / f"{stem}.txt").write_text(text)
    print(text, end="")
    return 0 if all(w["correct"] for w in data["workloads"].values()) else 1
