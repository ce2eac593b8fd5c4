"""Metrics registry unit tests: counters/gauges/histograms + persistence."""

from __future__ import annotations

import json

import pytest

from repro.obs import metrics


def test_counters_accumulate_and_default_to_zero():
    assert metrics.get("engine.fallback") == 0
    metrics.inc("engine.fallback")
    metrics.inc("engine.fallback", 2)
    assert metrics.get("engine.fallback") == 3


def test_gauges_last_write_wins():
    metrics.gauge("monitor.smoothed", 10.0)
    metrics.gauge("monitor.smoothed", 12.5)
    assert metrics.snapshot()["gauges"] == {"monitor.smoothed": 12.5}


def test_histogram_summary():
    for v in (3.0, 1.0, 2.0):
        metrics.observe("probe.rounds", v)
    hist = metrics.histograms()["probe.rounds"]
    assert {k: hist[k] for k in ("count", "sum", "min", "max")} == {
        "count": 3, "sum": 6.0, "min": 1.0, "max": 3.0
    }
    assert sum(hist["buckets"].values()) == 3  # every sample is bucketed


# ----------------------------------------------------------------------
# quantiles from log-bucketed summaries
# ----------------------------------------------------------------------
def test_quantile_empty_and_missing():
    assert metrics.quantile(None, 0.5) is None
    assert metrics.quantile({}, 0.99) is None
    assert metrics.quantile({"count": 0}, 0.5) is None


def test_quantile_single_sample_is_exact():
    metrics.observe("one.sample", 0.0371)
    hist = metrics.histograms()["one.sample"]
    assert metrics.quantile(hist, 0.50) == 0.0371
    assert metrics.quantile(hist, 0.99) == 0.0371
    assert metrics.quantile(hist, 0.0) == 0.0371


def test_quantile_bounded_relative_error():
    import random

    rng = random.Random(7)
    samples = sorted(rng.uniform(0.001, 0.5) for _ in range(500))
    for v in samples:
        metrics.observe("lat", v)
    hist = metrics.histograms()["lat"]
    for q in (0.5, 0.9, 0.99):
        exact = samples[max(0, int(q * len(samples)) - 1)]
        approx = metrics.quantile(hist, q)
        assert abs(approx - exact) / exact < 0.10  # ±4.4 % nominal + rank slop
    # extremes clamp to the exact envelope
    assert metrics.quantile(hist, 1.0) <= hist["max"]
    assert metrics.quantile(hist, 0.0) >= hist["min"]


def test_quantile_nonpositive_and_legacy_summaries():
    for v in (-1.0, 0.0, 2.0):
        metrics.observe("mixed", v)
    hist = metrics.histograms()["mixed"]
    assert metrics.quantile(hist, 0.3) == hist["min"]  # non-positive prefix
    legacy = {"count": 4, "sum": 10.0, "min": 1.0, "max": 4.0}  # no buckets
    assert metrics.quantile(legacy, 0.1) == 1.0
    assert metrics.quantile(legacy, 0.9) == 4.0
    with pytest.raises(ValueError):
        metrics.quantile(hist, 1.5)


def test_merge_histogram_adds_buckets():
    metrics.observe("m.a", 1.0)
    metrics.observe("m.a", 8.0)
    a = metrics.histograms()["m.a"]
    merged = metrics.merge_histogram(None, a)
    merged = metrics.merge_histogram(merged, a)
    assert merged["count"] == 4
    assert sum(merged["buckets"].values()) == 4
    assert merged is not a  # None target copies, never aliases


def test_snapshot_is_a_copy_and_reset_clears():
    metrics.inc("frame.count")
    snap = metrics.snapshot()
    snap["counters"]["frame.count"] = 999
    assert metrics.get("frame.count") == 1
    metrics.reset()
    assert metrics.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


# ----------------------------------------------------------------------
# cumulative cross-process persistence
# ----------------------------------------------------------------------
def test_fold_into_file_accumulates_counters(tmp_path):
    path = tmp_path / "meta" / "obs_metrics.json"  # parent dir auto-created
    metrics.fold_into_file(path, {"counters": {"sweep.cache.hit": 2}})
    merged = metrics.fold_into_file(
        path, {"counters": {"sweep.cache.hit": 3, "sweep.cache.miss": 1}}
    )
    assert merged["counters"] == {"sweep.cache.hit": 5, "sweep.cache.miss": 1}
    assert metrics.load_file(path)["counters"] == merged["counters"]


def test_fold_into_file_merges_gauges_and_histograms(tmp_path):
    path = tmp_path / "m.json"
    metrics.fold_into_file(
        path,
        {"gauges": {"monitor.smoothed": 1.0},
         "histograms": {"h": {"count": 1, "sum": 5.0, "min": 5.0, "max": 5.0}}},
    )
    merged = metrics.fold_into_file(
        path,
        {"gauges": {"monitor.smoothed": 2.0},
         "histograms": {"h": {"count": 2, "sum": 3.0, "min": 1.0, "max": 2.0}}},
    )
    assert merged["gauges"] == {"monitor.smoothed": 2.0}
    assert merged["histograms"]["h"] == {
        "count": 3, "sum": 8.0, "min": 1.0, "max": 5.0,
    }


def test_load_file_tolerates_missing_and_corrupt(tmp_path):
    empty = {"counters": {}, "gauges": {}, "histograms": {}}
    assert metrics.load_file(tmp_path / "absent.json") == empty
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json")
    assert metrics.load_file(corrupt) == empty
    wrong_shape = tmp_path / "list.json"
    wrong_shape.write_text(json.dumps([1, 2, 3]))
    assert metrics.load_file(wrong_shape) == empty
    # fold over a corrupt file starts from scratch rather than raising
    merged = metrics.fold_into_file(corrupt, {"counters": {"x": 1}})
    assert merged["counters"] == {"x": 1}


def _fold_worker(path, folds):
    from repro.obs import metrics as m

    for _ in range(folds):
        m.fold_into_file(
            path,
            {"counters": {"hits": 1},
             "histograms": {"lat": {"count": 1, "sum": 0.25, "min": 0.25,
                                    "max": 0.25, "buckets": {"-16": 1}}}},
        )


def test_fold_into_file_concurrent_writers_lose_nothing(tmp_path):
    """The satellite-1 regression: N processes × M folds, zero lost updates.

    Without the ``flock`` sidecar, concurrent read-modify-writes interleave
    (both read count=k, both publish k+1) and this count comes up short.
    """
    import multiprocessing

    path = str(tmp_path / "cumulative.json")
    workers, folds = 4, 25
    ctx = multiprocessing.get_context("fork")
    procs = [
        ctx.Process(target=_fold_worker, args=(path, folds))
        for _ in range(workers)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(60)
        assert p.exitcode == 0
    merged = metrics.load_file(path)
    assert merged["counters"]["hits"] == workers * folds
    hist = merged["histograms"]["lat"]
    assert hist["count"] == workers * folds
    assert hist["buckets"] == {"-16": workers * folds}
    assert hist["sum"] == pytest.approx(0.25 * workers * folds)


def test_merge_histogram_disjoint_buckets_quantiles_stay_bounded():
    for _ in range(5):
        metrics.observe("low", 0.001)
        metrics.observe("high", 100.0)
    low = metrics.histograms()["low"]
    high = metrics.histograms()["high"]
    target = metrics.merge_histogram(None, low)  # None starts a fresh copy
    assert metrics.merge_histogram(target, high) is target
    assert target["count"] == 10
    assert target["min"] == 0.001 and target["max"] == 100.0
    assert sum(target["buckets"].values()) == 10
    # Quantiles on the merged sparse buckets stay within the extremes
    # and split at the gap: p25 on the low mass, p75 on the high mass.
    assert metrics.quantile(target, 0.25) == pytest.approx(0.001, rel=0.1)
    assert metrics.quantile(target, 0.75) == pytest.approx(100.0, rel=0.1)
