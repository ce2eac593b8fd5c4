"""In-process metrics registry: counters, gauges and cheap histograms.

Unlike the tracer (off by default), the registry is **always on**: an
increment is one dict operation on plain Python numbers, cheap enough for
per-round/per-frame call sites (the hot per-tag loops live inside the
kernels and are never instrumented).  Metrics are process-local; sweep
workers fold their snapshots into the trace file as ``metrics`` records
(:func:`repro.obs.trace.flush`) and the report layer sums the last record
of each pid.

Histograms carry a count/sum/min/max summary plus sparse **log-spaced
buckets** so latency SLOs (the service layer's p50/p99 targets) can be
read back with :func:`quantile` at a bounded relative error (the bucket
base is 2^(1/8), so any quantile is within ~±4.4 % of the true sample) —
without storing samples.  Buckets merge by addition, so they survive the
same cross-process folds as the summaries.

Cumulative cross-process persistence — e.g. the sweep cache's lifetime
hit/miss/eviction totals surfaced by ``repro-rfid cache stats`` — goes
through :func:`fold_into_file`: read-modify-write of a small JSON snapshot
with an atomic replace, tolerant of a missing or corrupt file.  The
read-modify-write is serialised across processes by an advisory
``fcntl.flock`` on a ``<path>.lock`` sidecar (the same pattern as the
native build lock), so two pool workers folding simultaneously cannot
drop each other's deltas.

Windowed views (:mod:`repro.obs.live`) never touch the write path: they
difference successive :func:`snapshot` calls, so a write costs the same
with live telemetry attached as without.

Naming convention: dotted lowercase paths, most-general first —
``engine.fallback``, ``sweep.cache.hit``, ``kernel.native.occupancy``,
``frame.slots.idle``, ``service.request.seconds``.
"""

from __future__ import annotations

import json
import math
import os
import threading
from contextlib import contextmanager

__all__ = [
    "fold_into_file",
    "gauge",
    "get",
    "histograms",
    "inc",
    "load_file",
    "merge_histogram",
    "observe",
    "quantile",
    "reset",
    "snapshot",
]

_lock = threading.Lock()
_counters: dict[str, float] = {}
_gauges: dict[str, float] = {}
_hists: dict[str, dict] = {}


#: Log-bucket base: 2^(1/8) ≈ 1.0905 — 8 buckets per octave, ~±4.4 %
#: worst-case relative quantile error (half a bucket width).
_BUCKET_LOG_BASE = math.log(2.0) / 8.0

#: Bucket key for non-positive samples (log-buckets only cover v > 0).
_BUCKET_NONPOS = "lo"


def _bucket_key(value: float) -> str:
    """Sparse bucket key of one sample (``"lo"`` for values ≤ 0)."""
    if value <= 0.0:
        return _BUCKET_NONPOS
    return str(int(math.floor(math.log(value) / _BUCKET_LOG_BASE)))


def inc(name: str, value: float = 1) -> None:
    """Add ``value`` (default 1) to counter ``name``."""
    with _lock:
        _counters[name] = _counters.get(name, 0) + value


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (last write wins)."""
    with _lock:
        _gauges[name] = value


def observe(name: str, value: float) -> None:
    """Fold ``value`` into histogram ``name`` (summary + log buckets)."""
    key = _bucket_key(value)
    with _lock:
        h = _hists.get(name)
        if h is None:
            _hists[name] = {
                "count": 1,
                "sum": value,
                "min": value,
                "max": value,
                "buckets": {key: 1},
            }
        else:
            h["count"] += 1
            h["sum"] += value
            if value < h["min"]:
                h["min"] = value
            if value > h["max"]:
                h["max"] = value
            buckets = h.setdefault("buckets", {})
            buckets[key] = buckets.get(key, 0) + 1


def get(name: str, default: float = 0) -> float:
    """Current value of counter ``name`` (0 when never incremented)."""
    return _counters.get(name, default)


def _copy_hist(h: dict) -> dict:
    out = dict(h)
    if "buckets" in out:
        out["buckets"] = dict(out["buckets"])
    return out


def histograms() -> dict[str, dict]:
    """Copy of the histogram summaries."""
    with _lock:
        return {k: _copy_hist(v) for k, v in _hists.items()}


def quantile(hist: dict | None, q: float) -> float | None:
    """Approximate ``q``-quantile of one histogram summary dict.

    Works on any histogram produced by :func:`observe` (or merged through
    :func:`merge_histogram` / :func:`fold_into_file`).  Returns ``None``
    for an empty (or missing) histogram; a single-sample histogram returns
    that sample exactly.  With log buckets present the result is the
    geometric midpoint of the bucket holding the rank-``⌈q·count⌉`` sample,
    clamped to the exact ``[min, max]`` envelope — worst-case relative
    error ~±4.4 %.  A bucketless summary (older snapshot files) degrades
    to the clamp endpoints.
    """
    if not 0 <= q <= 1:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not hist or not hist.get("count"):
        return None
    count = hist["count"]
    lo, hi = hist["min"], hist["max"]
    if count == 1 or lo == hi:
        return lo
    rank = max(1, math.ceil(q * count))
    buckets = hist.get("buckets") or {}
    if not buckets:
        return lo if q < 0.5 else hi  # legacy summary: best effort
    seen = 0
    if _BUCKET_NONPOS in buckets:
        seen += buckets[_BUCKET_NONPOS]
        if seen >= rank:
            return lo  # rank falls in the non-positive prefix: min clamp
    for idx in sorted(int(k) for k in buckets if k != _BUCKET_NONPOS):
        seen += buckets[str(idx)]
        if seen >= rank:
            mid = math.exp((idx + 0.5) * _BUCKET_LOG_BASE)
            return min(max(mid, lo), hi)
    return hi


def merge_histogram(target: dict | None, delta: dict) -> dict:
    """Merge histogram summary ``delta`` into ``target`` (in place).

    ``target=None`` starts a fresh copy.  Counts/sums add, min/max widen,
    sparse buckets add per key.  Tolerates bucketless summaries on either
    side (older snapshot files) — the merged histogram then simply carries
    whatever bucket evidence exists.
    """
    if target is None:
        return _copy_hist(delta)
    target["count"] += delta["count"]
    target["sum"] += delta["sum"]
    target["min"] = min(target["min"], delta["min"])
    target["max"] = max(target["max"], delta["max"])
    if delta.get("buckets"):
        buckets = target.setdefault("buckets", {})
        for key, n in delta["buckets"].items():
            buckets[key] = buckets.get(key, 0) + n
    return target


def snapshot() -> dict:
    """One JSON-ready snapshot of every metric in this process."""
    with _lock:
        return {
            "counters": dict(_counters),
            "gauges": dict(_gauges),
            "histograms": {k: _copy_hist(v) for k, v in _hists.items()},
        }


def reset() -> None:
    """Zero every metric (tests and long-lived processes)."""
    with _lock:
        _counters.clear()
        _gauges.clear()
        _hists.clear()


# ----------------------------------------------------------------------
# cumulative cross-process persistence
# ----------------------------------------------------------------------
def load_file(path) -> dict:
    """Read a persisted snapshot; empty shape on missing/corrupt files."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {"counters": {}, "gauges": {}, "histograms": {}}
    if not isinstance(data, dict):
        return {"counters": {}, "gauges": {}, "histograms": {}}
    return {
        "counters": dict(data.get("counters") or {}),
        "gauges": dict(data.get("gauges") or {}),
        "histograms": {
            k: _copy_hist(v) for k, v in (data.get("histograms") or {}).items()
        },
    }


@contextmanager
def _fold_lock(path: str):
    """Advisory inter-process lock for one snapshot file's read-modify-write.

    Same pattern as the native build lock (``_native.py``): an exclusive
    ``flock`` on a ``<path>.lock`` sidecar, degrading to unlocked operation
    where ``fcntl`` is unavailable or the directory is unwritable — the
    atomic tmp + ``os.replace`` publish still prevents torn files, the lock
    only prevents two concurrent folders from both reading the same base
    snapshot and silently dropping one delta.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX
        yield
        return
    try:
        fh = open(f"{path}.lock", "a+")
    except OSError:  # pragma: no cover - unwritable directory
        yield
        return
    try:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        yield
    finally:
        fh.close()  # releases the lock


def fold_into_file(path, delta: dict) -> dict:
    """Add a snapshot-shaped ``delta`` into the cumulative file at ``path``.

    Counters add, gauges overwrite, histograms merge their summaries and
    buckets.  The read-modify-write runs under an exclusive inter-process
    lock so concurrent folders (e.g. two pool workers persisting cache
    counters at once) serialise instead of losing an update, and the write
    itself stays atomic (tmp + rename).  The merged snapshot is returned.
    Bare ``{"counters": {...}}``-style partial deltas are accepted.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with _fold_lock(path):
        merged = load_file(path)
        for name, value in (delta.get("counters") or {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, value in (delta.get("gauges") or {}).items():
            merged["gauges"][name] = value
        for name, h in (delta.get("histograms") or {}).items():
            merged["histograms"][name] = merge_histogram(
                merged["histograms"].get(name), h
            )
        tmp = f"{path}.tmp{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, sort_keys=True)
        os.replace(tmp, path)
    return merged
