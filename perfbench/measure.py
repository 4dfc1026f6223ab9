"""Summary statistics and the environment record of a benchmark run."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

TAIL_BEYOND = 10


def tail(latencies) -> dict:
    """The latency at the highest percentile with at least TAIL_BEYOND
    operations beyond it, with that percentile and the operation count.

    With n sorted latencies this is the (n - TAIL_BEYOND)-th smallest.  With
    TAIL_BEYOND or fewer operations no percentile qualifies, and the maximum
    is reported (``beyond`` then says how few lie past it)."""
    xs = sorted(latencies)
    n = len(xs)
    if n == 0:
        raise ValueError("no latencies")
    idx = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return {
        "value": xs[idx],
        "percentile": 100.0 * (idx + 1) / n,
        "beyond": n - idx - 1,
        "ops": n,
    }


def median_rate(phase: dict) -> float:
    """Median over a phase's cycles of completed work per second of timed
    wall clock; a median resists the bursts of a shared machine."""
    return statistics.median(w / t for w, t in zip(phase["cycle_work"], phase["cycle_times"]))


def source_digest(src: Path) -> str:
    """SHA-256 over the library's source files, in path order."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def blas_info() -> dict:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {}


def environment(root: Path, seed: int) -> dict:
    """Everything a reader needs to compare two results."""
    import mpmath
    import numpy
    import scipy

    threads = os.environ.get("PIPRET_THREADS")
    nproc = os.cpu_count() or 1
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root / "src" / "pipret"),
        "nproc": nproc,
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "PIPRET_THREADS": threads,
        # the CLI's own rule: min(4, nproc) workers unless PIPRET_THREADS is set
        "pipret_pool_workers": max(1, int(threads)) if threads else min(4, nproc),
        "blas": blas_info(),
        "blas_thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "seed": seed,
        "load": "closed loop, one client thread in one process",
    }
