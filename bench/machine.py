"""Description of the machine and checkout a benchmark result was measured on."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(root: Path) -> str | None:
    """HEAD commit of the checkout at `root`, read from .git without running git.

    Returns None when `root` is not a git repository (an exported tree).
    """
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "platform": sys.platform,
    }


def speed_probe_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed small numpy and interpreter workload.

    Recorded before and after each run: shared hosts change speed by tens of
    percent over minutes, and this tells a slow host from a slow program.
    """
    import statistics
    from time import perf_counter

    import numpy as np

    a = np.random.default_rng(0).random((200, 200))
    times = []
    for _ in range(repeats + 1):  # the first round warms up and is dropped
        t0 = perf_counter()
        b = a
        for _ in range(20):
            b = np.tanh(b @ a / 200.0)
        sum(i * i for i in range(100000))
        times.append(perf_counter() - t0)
    return statistics.median(times[1:]) * 1e3
