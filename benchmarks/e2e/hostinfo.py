"""Host manifest: what a reader needs to tell a noisy run from a quiet one
(stdlib only)."""

from __future__ import annotations

import os
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Pinned in every workload subprocess.  One BLAS/OpenMP thread: the plain
#: single-threaded baseline the serial workloads stand for, and no BLAS x
#: worker oversubscription on the process workload.  The two glibc malloc
#: thresholds keep freed blocks in the heap instead of returning them to the
#: kernel after every step: on the microVMs this runs on, re-faulting the
#: same ~40 MB of M2L temporaries costs anywhere from 40 ms to 8 s of system
#: time per step (README.md, "Why the allocator is pinned"), which no
#: statistic can see through.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(4 * 2**30),
    "MALLOC_TRIM_THRESHOLD_": str(4 * 2**30),
}
MALLOC_ENV = (
    "MALLOC_ARENA_MAX", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
    "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_", "GLIBC_TUNABLES", "LD_PRELOAD",
)


def read_text(path: str) -> Optional[str]:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cpu_jiffies() -> List[int]:
    """The aggregate ``cpu`` line of /proc/stat (user, nice, system, idle,
    iowait, irq, softirq, steal, ...)."""
    stat = read_text("/proc/stat")
    if not stat:
        return []
    return [int(x) for x in stat.splitlines()[0].split()[1:]]


def steal_pct(before: List[int], after: List[int]) -> Optional[float]:
    if len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return 100.0 * (after[7] - before[7]) / total if total > 0 else None


def git_commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def manifest(root: Path) -> Dict[str, Any]:
    return {
        "git_commit": git_commit(root),
        "usable_cores": len(os.sched_getaffinity(0)),
        "child_env": dict(CHILD_ENV),
        "inherited_malloc_env": {
            k: os.environ[k] for k in MALLOC_ENV if k in os.environ
        },
        "thp_enabled": read_text("/sys/kernel/mm/transparent_hugepage/enabled"),
        "thp_defrag": read_text("/sys/kernel/mm/transparent_hugepage/defrag"),
        "loadavg_start": read_text("/proc/loadavg"),
    }
