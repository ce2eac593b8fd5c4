"""Host capability snapshot shared by every ``BENCH_*.json`` report.

Multicore perf numbers are meaningless without knowing how many cores the
run could actually use: ``os.cpu_count()`` reports the machine, but a
pinned CI runner or cgroup-limited container may expose far fewer cores to
the process (the affinity mask), and ``REPRO_NATIVE_THREADS`` may pin the
kernels below either.  :func:`host_block` records all three alongside the
usual platform fields so ``benchmarks/collect.py`` can fold comparable
host context into the trajectory — a 1.0× "speedup" on a 1-core runner is
then visibly a skip, not a regression.
"""

from __future__ import annotations

import os
import platform

__all__ = ["affinity_cpu_count", "host_block"]


def affinity_cpu_count() -> int:
    """Cores the current process may run on (its affinity mask)."""
    return len(os.sched_getaffinity(0))


def host_block() -> dict:
    """JSON-ready host description for benchmark report ``host`` blocks."""
    from ..rfid import _native

    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "cpus_affinity": affinity_cpu_count(),
        "native_threads": _native.native_thread_count(),
        "native_threads_env": os.environ.get("REPRO_NATIVE_THREADS") or None,
    }
