"""Shared plumbing for the perf harnesses (``bench_perf_*.py``, ``bench_multireader.py``).

Every harness measures one layer, builds a report dict, declares its gates
as :class:`Check` objects and hands both to :func:`finish`, which evaluates
the checks, records each verdict in the report's ``checks`` list, writes
the ``BENCH_*.json`` artifact and returns the process exit code.

Gate thresholds live in ``perf_floors.json`` next to this file, one entry
per floor key with a ``full`` value and, where the gate also applies to a
``--smoke`` run, a ``smoke`` value.  A harness names a floor key and never
holds a threshold itself.  Exact checks (zero drift, zero mismatches, a
flag that must hold) name no floor: their target is definitional and they
run at every scale.  A recorded check looks like::

    {"name": "engine.threaded_speedup", "value": 1.11, "op": ">=",
     "threshold": 1.6, "floor": "engine_threaded_speedup_min",
     "status": "fail", "reason": "1.11 >= 1.6 does not hold"}

``status`` is ``pass``, ``fail`` or ``skipped``.  A floor with no smoke
value is skipped under ``--smoke``; a ``multicore`` check is skipped when
the host affinity mask exposes fewer than two cores.  Either way the skip
and its reason land in the artifact, never a silent pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import operator
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = REPO_ROOT / "src"
if str(_SRC) not in sys.path:  # script-mode convenience; no-op under PYTHONPATH=src
    sys.path.insert(0, str(_SRC))

from repro.experiments.sweep import TrialCache, run_sweep  # noqa: E402
from repro.obs import trace as obs_trace  # noqa: E402
from repro.obs.host import affinity_cpu_count  # noqa: E402

FLOORS_PATH = Path(__file__).resolve().parent / "perf_floors.json"

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    ">=": operator.ge,
}


def parse_smoke(argv: list[str] | None = None) -> bool:
    """Parse the harness command line: ``[--smoke]`` and nothing else.

    An unknown argument prints usage to stderr and exits 2.
    """
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced workload for CI (seconds)"
    )
    return parser.parse_args(argv).smoke


def env_int(name: str, default: int) -> int:
    """An integer knob from the environment."""
    return int(os.environ.get(name, default))


def out_path(filename: str) -> Path:
    """Where the artifact goes: ``REPRO_BENCH_OUT`` or ``<repo>/filename``."""
    return Path(os.environ.get("REPRO_BENCH_OUT", REPO_ROOT / filename))


def cache_path(name: str) -> Path:
    """Sweep cache directory: ``REPRO_BENCH_CACHE`` or ``<repo>/.repro_cache/name``."""
    return Path(os.environ.get("REPRO_BENCH_CACHE", REPO_ROOT / ".repro_cache" / name))


def time_best_of(fn: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """Best-of-``repeats`` wall time of ``fn()``; returns (seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@contextlib.contextmanager
def pinned_threads(value: int):
    """Pin ``REPRO_NATIVE_THREADS`` around a block, restoring it after.

    The kernels re-read the variable on every call, so pinning around one
    run measures exactly that run at the pinned thread count: no rebuild,
    no process restart, and bit-identical outputs either way.
    """
    old = os.environ.get("REPRO_NATIVE_THREADS")
    os.environ["REPRO_NATIVE_THREADS"] = str(value)
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("REPRO_NATIVE_THREADS", None)
        else:
            os.environ["REPRO_NATIVE_THREADS"] = old


def default_workers() -> int:
    """Sweep worker count: the affinity-visible cores, at most four."""
    return min(4, affinity_cpu_count())


def timed_sweep(points: list, cache_dir: Path, workers: int) -> tuple[float, dict, list]:
    """One timed :func:`run_sweep` pass against ``cache_dir``.

    Returns (seconds, cache-pass summary, payloads).
    """
    cache = TrialCache(cache_dir)
    t0 = time.perf_counter()
    payloads = run_sweep(points, max_workers=workers, cache=cache)
    seconds = time.perf_counter() - t0
    total = cache.hits + cache.misses
    summary = {
        "seconds": round(seconds, 4),
        "hits": cache.hits,
        "misses": cache.misses,
        "stores": cache.stores,
        "rejected": cache.rejected,
        "hit_rate": round(cache.hits / total, 4) if total else 0.0,
    }
    return seconds, summary, payloads


@dataclass(frozen=True)
class Check:
    """One gate: ``value op threshold`` must hold.

    ``floor`` names the ``perf_floors.json`` key that holds the threshold.
    Without a floor the check is exact and ``expect`` is its target.  A
    ``multicore`` check needs two affinity-visible cores to mean anything.
    """

    name: str
    value: Any
    op: str
    floor: str | None = None
    expect: Any = None
    multicore: bool = False


def load_floors() -> dict:
    """The floor table: ``{key: {"full": x[, "smoke": y]}}``."""
    floors = json.loads(FLOORS_PATH.read_text())
    floors.pop("calibration", None)
    return floors


def evaluate(checks: list[Check], *, smoke: bool, floors: dict) -> list[dict]:
    """Verdict records for ``checks`` at the given scale."""
    scale = "smoke" if smoke else "full"
    cores = affinity_cpu_count()
    records = []
    for check in checks:
        if check.floor is None:
            threshold = check.expect
        else:
            threshold = floors[check.floor].get(scale)
        if threshold is None:
            status, reason = "skipped", "no smoke threshold"
        elif check.multicore and cores < 2:
            status = "skipped"
            reason = f"host affinity exposes {cores} core(s); need ≥ 2"
        elif check.value is None:
            status, reason = "fail", "not measured"
        elif _OPS[check.op](check.value, threshold):
            status, reason = "pass", f"{check.value} {check.op} {threshold}"
        else:
            status = "fail"
            reason = f"{check.value} {check.op} {threshold} does not hold"
        records.append(
            {
                "name": check.name,
                "value": check.value,
                "op": check.op,
                "threshold": threshold,
                "floor": check.floor,
                "status": status,
                "reason": reason,
            }
        )
    return records


def finish(report: dict, checks: list[Check], out: Path, smoke: bool) -> int:
    """Record every check's verdict, write the artifact, return the exit code.

    Prints one PASS/FAIL/SKIP line per check and flushes the trace (under
    ``REPRO_TRACE`` that lands the cumulative counters for ``obs summary``).
    Exit code 1 if any check failed, else 0.
    """
    report["checks"] = evaluate(checks, smoke=smoke, floors=load_floors())
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    labels = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}
    for record in report["checks"]:
        print(f"{labels[record['status']]}: {record['name']}: {record['reason']}")
    obs_trace.flush()
    return 1 if any(r["status"] == "fail" for r in report["checks"]) else 0
