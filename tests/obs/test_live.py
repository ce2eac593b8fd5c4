"""Live-telemetry unit tests: ring windows, SLO burn math, rendering.

Everything time-dependent runs on a fake monotonic clock, so window
expiry, rate divisors and slot-boundary behaviour are exact, not
sleep-based.
"""

from __future__ import annotations

import pytest

from repro.obs import metrics
from repro.obs.live import (
    DEFAULT_WINDOWS,
    LiveTelemetry,
    SLOSpec,
    SLOTracker,
    WindowSpec,
    render_prometheus,
    render_top,
    split_zone_metric,
    zone_metric,
)


class FakeClock:
    def __init__(self, t: float = 100.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ----------------------------------------------------------------------
# window specs
# ----------------------------------------------------------------------
def test_window_spec_validation():
    with pytest.raises(ValueError):
        WindowSpec("w", slots=1, width_seconds=1.0)
    with pytest.raises(ValueError):
        WindowSpec("w", slots=4, width_seconds=0.0)
    assert [spec.name for spec in DEFAULT_WINDOWS] == ["1s", "10s"]


def _attached(clock, *specs, **kwargs):
    """An attached telemetry front on ``clock`` (one 8×1 s ring by default)."""
    telemetry = LiveTelemetry(
        windows=specs or (WindowSpec("1s", 8, 1.0),), clock=clock, **kwargs
    )
    telemetry.attach()
    return telemetry


def _tick(clock, telemetry, slots: int = 1) -> list[dict]:
    """Advance ``slots`` 1 s evaluator ticks, rolling the windows at each
    (as the server's telemetry loop does); return the alerts raised."""
    alerts = []
    for _ in range(slots):
        clock.advance(1.0)
        alerts.extend(telemetry.evaluate())
    return alerts


# ----------------------------------------------------------------------
# ring windows (driven through the registry, a fake clock and rolls)
# ----------------------------------------------------------------------
def test_ring_window_counts_within_window_and_expires_at_boundary():
    clock = FakeClock(10.0)
    telemetry = _attached(clock, WindowSpec("1s", slots=4, width_seconds=1.0))
    ring = telemetry.windows["1s"]
    metrics.inc("service.requests", 1)  # epoch 10
    _tick(clock, telemetry)
    metrics.inc("service.requests", 2)  # epoch 11
    _tick(clock, telemetry, 2)
    # Window of 4 slots ending at epoch 13 spans epochs 10..13: both live.
    assert ring.count("service.requests") == 3
    # Reads that include the open slot add its pending part.
    metrics.inc("service.requests", 4)
    assert telemetry.watch_snapshot()["global"]["requests"] == 7
    # At epoch 14 the window spans 11..14 — epoch 10 just fell out.
    _tick(clock, telemetry)
    assert ring.count("service.requests") == 6
    # At epoch 17 the window spans 14..17: everything is out...
    _tick(clock, telemetry, 3)
    assert ring.count("service.requests") == 0
    # ...but nothing recorded is ever lost.
    assert telemetry.reconcile(["service.requests"])["service.requests"] == {
        "lifetime_delta": 7,
        "windowed": 7,
        "exact": True,
    }


def test_ring_window_rate_excludes_partial_current_slot():
    clock = FakeClock(10.0)
    telemetry = _attached(clock, WindowSpec("1s", slots=8, width_seconds=1.0))
    assert telemetry.rate("req") == 0.0  # no data at all
    metrics.inc("req", 10)
    _tick(clock, telemetry)
    metrics.inc("req", 20)
    _tick(clock, telemetry)
    metrics.inc("req", 999)  # open slot: excluded
    clock.advance(0.5)
    # Two completed slots (10, 11) since attach → 15 req/s.
    assert telemetry.rate("req") == pytest.approx(15.0)


def test_ring_window_rate_divisor_clamps_to_completed_ring():
    clock = FakeClock(10.0)
    telemetry = _attached(clock, WindowSpec("1s", slots=4, width_seconds=1.0))
    metrics.inc("req", 6)
    # 100 epochs later the ring covers at most slots-1 completed slots.
    _tick(clock, telemetry, 100)
    assert telemetry.rate("req") == 0.0  # data expired from the window
    metrics.inc("req", 6)
    _tick(clock, telemetry)
    clock.advance(0.5)
    assert telemetry.rate("req") == pytest.approx(6 / 3)  # clamp: 3 slots


def test_ring_window_conservation_across_many_reclaims():
    clock = FakeClock(0.0)
    telemetry = _attached(clock, WindowSpec("1s", slots=4, width_seconds=1.0))
    total = 0
    for epoch in range(50):  # > 12 full ring wraps
        metrics.inc("req", epoch)
        metrics.observe("lat", 0.01 * (epoch + 1))
        total += epoch
        _tick(clock, telemetry)
    assert telemetry.reconcile(["req"])["req"] == {
        "lifetime_delta": total,
        "windowed": total,
        "exact": True,
    }
    ring = telemetry.windows["1s"]
    hist = ring.histogram("lat", since_attach=True)
    assert hist["count"] == 50
    assert hist["sum"] == pytest.approx(sum(0.01 * (e + 1) for e in range(50)))
    # The window only holds the last 3 completed epochs (epoch 50 is open).
    assert ring.count("req") == 47 + 48 + 49
    assert ring.histogram("lat")["count"] == 3


def test_ring_window_slot_stats_empty_after_reclaim():
    clock = FakeClock(5.0)
    telemetry = _attached(clock, WindowSpec("1s", slots=2, width_seconds=1.0))
    ring = telemetry.windows["1s"]
    metrics.inc("req")
    _tick(clock, telemetry)
    assert ring.slot_stats(5) == ({"req": 1}, {})
    metrics.inc("req")
    _tick(clock, telemetry)  # epoch 7: slot 5 leaves the 2-slot window
    assert ring.slot_stats(5) == ({}, {})
    assert ring.slot_stats(6) == ({"req": 1}, {})


def test_ring_window_histogram_merges_disjoint_slot_buckets():
    clock = FakeClock(10.0)
    telemetry = _attached(clock, WindowSpec("1s", slots=8, width_seconds=1.0))
    # Two slots whose samples land in disjoint log buckets.
    for _ in range(3):
        metrics.observe("lat", 0.001)
    _tick(clock, telemetry)
    for _ in range(3):
        metrics.observe("lat", 10.0)
    _tick(clock, telemetry)
    hist = telemetry.windows["1s"].histogram("lat")
    assert hist["count"] == 6
    assert hist["min"] == 0.001 and hist["max"] == 10.0
    assert sum(hist["buckets"].values()) == 6
    # Median sits in the gap: the bucketed answer stays inside [min, max]
    # and the extremes match the per-slot extremes exactly.
    assert 0.001 <= metrics.quantile(hist, 0.5) <= 10.0
    assert metrics.quantile(hist, 0.0) == pytest.approx(0.001, rel=0.1)
    assert metrics.quantile(hist, 1.0) == pytest.approx(10.0, rel=0.1)


#: Half a log bucket: the worst-case error of a bucket-midpoint estimate,
#: 2^(1/16) − 1 ≈ 4.43 %.
_HALF_BUCKET = 0.0443


def test_slot_extremes_follow_the_slot_not_the_lifetime_envelope():
    clock = FakeClock()
    z = zone_metric("dock", "innovation_z")
    telemetry = _attached(clock, slo=SLOSpec(max_innovation_z=6.0))
    ring = telemetry.windows["1s"]
    telemetry.evaluate()  # pre-history mark

    def slot(value):
        metrics.inc(zone_metric("dock", "requests"))
        metrics.observe(z, value)
        return _tick(clock, telemetry)

    assert slot(9.0) == []  # first bad slot: burn 1.0, inside the budget
    for epoch in range(101, 104):
        assert slot(1.0) == []
        hist = ring.slot_stats(epoch)[1][z]
        # Not the stale lifetime max of 9: the slot's own ≈ 1.
        assert hist["max"] == pytest.approx(1.0, rel=_HALF_BUCKET)
        assert hist["min"] == pytest.approx(1.0, rel=_HALF_BUCKET)
    (alert,) = slot(9.0)  # second bad slot in the look-back: breach
    assert alert["scope"] == "dock"
    assert alert["objective"] == "max_innovation_z"
    assert alert["observed"] == pytest.approx(9.0, rel=_HALF_BUCKET)
    for _ in range(8):  # good slots roll the bad ones out of the look-back
        assert slot(1.0) == []
    assert telemetry.summary()["burn_rates"]["dock"] == 0.0


def test_single_sample_slot_quantile_is_within_half_a_bucket():
    clock = FakeClock()
    telemetry = _attached(clock)
    metrics.observe("lat", 0.001)  # widen the lifetime envelope first
    metrics.observe("lat", 1.0)
    _tick(clock, telemetry)
    metrics.observe("lat", 0.05)
    _tick(clock, telemetry)
    hist = telemetry.windows["1s"].slot_stats(101)[1]["lat"]
    assert hist["count"] == 1
    assert metrics.quantile(hist, 0.99) == pytest.approx(0.05, rel=_HALF_BUCKET)


def test_rolls_under_concurrent_writers_lose_and_double_count_nothing():
    import sys
    import threading

    clock = FakeClock(0.0)
    telemetry = _attached(clock, WindowSpec("1s", slots=4, width_seconds=1.0))
    writers, per_writer = 4, 5000

    def write():
        for _ in range(per_writer):
            metrics.inc("req")
            metrics.observe("lat", 0.002)

    threads = [threading.Thread(target=write) for _ in range(writers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            _tick(clock, telemetry)  # rolls race the writers
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    _tick(clock, telemetry)
    total = writers * per_writer
    assert telemetry.reconcile(["req"])["req"]["windowed"] == total
    ring = telemetry.windows["1s"]
    assert ring.count("req", since_attach=True) == total
    assert ring.histogram("lat", since_attach=True)["count"] == total


def test_windows_mirror_registry_until_detach():
    clock = FakeClock()
    telemetry = LiveTelemetry(clock=clock)  # default 1s and 10s rings
    telemetry.attach()
    metrics.inc("service.requests")
    metrics.inc("service.requests", 2)
    metrics.observe("service.request.seconds", 0.25)
    clock.advance(1.0)
    telemetry.detach()
    metrics.inc("service.requests", 100)  # after detach: not mirrored
    _tick(clock, telemetry, 10)
    for ring in telemetry.windows.values():
        assert ring.count("service.requests", since_attach=True) == 3
    assert telemetry.watch_snapshot()["global"]["p50_ms"] == 250.0
    assert metrics.get("service.requests") == 103


def test_telemetry_rejects_unknown_window_and_empty_spec():
    telemetry = LiveTelemetry()
    with pytest.raises(KeyError):
        telemetry.rate("x", "3s")
    with pytest.raises(ValueError):
        LiveTelemetry(windows=())


# ----------------------------------------------------------------------
# SLO spec + burn accounting
# ----------------------------------------------------------------------
def test_slo_spec_validation_and_round_trip():
    spec = SLOSpec(p99_ms=50.0, max_shed_rate=0.1)
    assert SLOSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValueError):
        SLOSpec(budget=0.0)
    with pytest.raises(ValueError):
        SLOSpec(burn_slots=0)
    with pytest.raises(ValueError):
        SLOSpec.from_dict({"p99_ms": 1.0, "nope": 2})
    with pytest.raises(ValueError):
        SLOSpec.from_dict([1, 2])


def test_burn_rate_second_bad_slot_breaches_and_idle_slots_recover():
    tracker = SLOTracker(SLOSpec(p99_ms=50.0))  # budget 1/8 over 8 slots
    bad_slot = {"requests": 10, "p99_ms": 80.0}
    first = tracker.evaluate_slot(bad_slot)
    assert first["bad"] and not first["breached"]
    assert first["burn_rate"] == pytest.approx(1.0)  # budget exactly spent
    second = tracker.evaluate_slot(bad_slot)
    assert second["breached"]
    assert second["burn_rate"] == pytest.approx(2.0)
    assert second["violations"] == [
        {"objective": "p99_ms", "observed": 80.0, "target": 50.0}
    ]
    # Idle slots are good slots: the budget recovers as they roll through.
    for _ in range(8):
        status = tracker.evaluate_slot({})
    assert status["burn_rate"] == 0.0 and not status["bad"]


def test_slo_shed_and_fallback_rates_with_zero_request_slots():
    tracker = SLOTracker(SLOSpec(max_shed_rate=0.5, max_fallback_rate=0.0))
    # All arrivals shed: requests counts only admitted work, so a
    # shed-only slot must still read as a 100 % shed rate.
    status = tracker.evaluate_slot({"requests": 0, "shed": 3})
    assert [v["objective"] for v in status["violations"]] == ["max_shed_rate"]
    status = tracker.evaluate_slot({"requests": 10, "shed": 2, "fallbacks": 1})
    assert [v["objective"] for v in status["violations"]] == ["max_fallback_rate"]
    status = tracker.evaluate_slot({"requests": 10, "shed": 2})
    assert not status["bad"]  # 20 % shed under the 50 % target


def test_slo_latency_objective_skips_slots_without_latency_data():
    tracker = SLOTracker(SLOSpec(p99_ms=1.0))
    assert not tracker.evaluate_slot({"requests": 5, "p99_ms": None})["bad"]


# ----------------------------------------------------------------------
# zone metric naming
# ----------------------------------------------------------------------
def test_zone_metric_names_round_trip_with_dotted_zones():
    for zone in ("dock", "dock.north.2"):
        for suffix in ("requests", "shed", "seconds", "innovation_z"):
            assert split_zone_metric(zone_metric(zone, suffix)) == (zone, suffix)
    assert split_zone_metric("service.requests") is None
    assert split_zone_metric("service.zone.dock.unknown") is None
    assert split_zone_metric("service.zone.requests") is None  # empty zone
    with pytest.raises(ValueError):
        zone_metric("dock", "latency")


# ----------------------------------------------------------------------
# telemetry front: evaluate / reconcile / snapshots
# ----------------------------------------------------------------------
def test_evaluate_fires_p99_breach_on_second_bad_window():
    clock = FakeClock()
    telemetry = _attached(clock, slo=SLOSpec(p99_ms=50.0))
    alerts = []
    try:
        telemetry.evaluate()  # first call only sets the pre-history mark
        for _ in range(2):  # two consecutive bad 1 s slots
            metrics.inc("service.requests", 4)
            metrics.inc(zone_metric("dock", "requests"), 4)
            for _ in range(4):
                metrics.observe("service.request.seconds", 0.2)
                metrics.observe(zone_metric("dock", "seconds"), 0.2)
            clock.advance(1.0)
            alerts.extend(telemetry.evaluate())
    finally:
        telemetry.detach()
    # First bad slot burns the whole budget (1.0, still inside it); the
    # second pushes burn past 1.0 and breaches, for global AND the zone.
    assert {a["scope"] for a in alerts} == {"global", "dock"}
    assert all(a["objective"] == "p99_ms" for a in alerts)
    assert all(a["burn_rate"] == pytest.approx(2.0) for a in alerts)
    assert metrics.get("slo.breach") == 2
    assert metrics.get("slo.breach.global") == 1
    assert list(telemetry.alerts) == alerts
    assert telemetry.summary()["burn_rates"]["global"] == pytest.approx(2.0)


def test_evaluate_without_slo_is_inert():
    clock = FakeClock()
    telemetry = _attached(clock)
    try:
        metrics.inc("service.requests")
        clock.advance(5.0)
        assert telemetry.evaluate() == []
    finally:
        telemetry.detach()
    assert len(telemetry.alerts) == 0


def test_reconcile_is_bit_exact_across_slot_churn():
    clock = FakeClock()
    metrics.inc("service.requests", 7)  # pre-attach traffic: baseline
    telemetry = _attached(clock)
    try:
        total = 0
        for step in range(40):  # 5 full wraps of the 8-slot ring
            metrics.inc("service.requests", step)
            metrics.inc(zone_metric("dock", "requests"))
            total += step
            _tick(clock, telemetry)
        metrics.inc("service.requests", 5)  # still pending in the open slot
        total += 5
        report = telemetry.reconcile(
            ["service.requests", zone_metric("dock", "requests"), "absent"]
        )
    finally:
        telemetry.detach()
    assert report["service.requests"] == {
        "lifetime_delta": total,  # the pre-attach 7 is baselined away
        "windowed": total,
        "exact": True,
    }
    assert report[zone_metric("dock", "requests")]["exact"]
    assert report["absent"] == {"lifetime_delta": 0, "windowed": 0, "exact": True}


def test_attach_is_idempotent_and_detach_stops_mirroring():
    clock = FakeClock()
    telemetry = _attached(clock)
    metrics.inc("service.requests")
    telemetry.attach()  # second attach must not restart the windows
    metrics.inc("service.requests")
    telemetry.detach()
    metrics.inc("service.requests")
    _tick(clock, telemetry)
    assert telemetry.reconcile(["service.requests"])["service.requests"] == {
        "lifetime_delta": 2,
        "windowed": 2,
        "exact": True,
    }


def test_watch_snapshot_shape_and_zone_rows():
    clock = FakeClock()
    telemetry = _attached(clock, slo=SLOSpec(p99_ms=250.0))
    try:
        metrics.inc("service.requests", 8)
        metrics.inc("service.cache.memory_hit", 6)
        metrics.inc("service.engine.calls", 2)
        metrics.observe("service.request.seconds", 0.004)
        metrics.inc(zone_metric("dock", "requests"), 8)
        metrics.observe(zone_metric("dock", "seconds"), 0.004)
        metrics.observe(zone_metric("dock", "innovation_z"), 0.7)
        clock.advance(1.2)
        snapshot = telemetry.watch_snapshot()
    finally:
        telemetry.detach()
    g = snapshot["global"]
    assert g["requests"] == 8
    assert g["rps"]["1s"] == pytest.approx(8.0)
    assert g["cache_hit_rate"] == pytest.approx(6 / 8)  # memory hits / attempts
    assert g["p99_ms"] == pytest.approx(4.0, rel=0.05)
    (dock,) = snapshot["zones"]
    assert dock["zone"] == "dock"
    assert dock["innovation_z"] == pytest.approx(0.7)
    assert snapshot["slo"]["p99_ms"] == 250.0
    assert snapshot["alerts"] == []


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def test_render_prometheus_counters_zones_and_summaries():
    metrics.inc("service.requests", 5)
    metrics.inc(zone_metric("dock", "requests"), 3)
    metrics.inc(zone_metric("yard", "requests"), 2)
    metrics.gauge("monitor.smoothed", 1.5)
    metrics.observe("service.request.seconds", 0.01)
    metrics.observe(zone_metric("dock", "seconds"), 0.01)
    text = render_prometheus(metrics.snapshot())
    assert "# TYPE repro_service_requests_total counter" in text
    assert "repro_service_requests_total 5.0" in text
    # Zone counters collapse into one labelled series per suffix.
    assert 'repro_service_zone_requests_total{zone="dock"} 3.0' in text
    assert 'repro_service_zone_requests_total{zone="yard"} 2.0' in text
    assert "repro_monitor_smoothed 1.5" in text
    assert '# TYPE repro_service_request_seconds summary' in text
    assert 'repro_service_request_seconds{quantile="0.5"}' in text
    assert 'repro_service_zone_seconds{zone="dock",quantile="0.99"}' in text
    assert "repro_service_request_seconds_count 1" in text


def test_render_prometheus_appends_live_rates_and_handles_none():
    clock = FakeClock()
    telemetry = _attached(clock)
    try:
        metrics.inc("service.requests", 4)
        clock.advance(1.0)
        text = render_prometheus(metrics.snapshot(), live=telemetry)
    finally:
        telemetry.detach()
    assert 'repro_service_requests_rate{window="1s"} 4.0' in text
    # An empty histogram quantile renders NaN, not a crash.
    assert render_prometheus({"histograms": {"empty": {"count": 0}}}).count("NaN") >= 3


def test_render_top_rows_and_alerts():
    payload = {
        "global": {
            "rps": {"1s": 120.0, "10s": 80.0},
            "p50_ms": 0.9,
            "p99_ms": 2.5,
            "requests": 120,
            "shed": 0,
            "fallbacks": 0,
            "cache_hit_rate": 0.991,
            "burn_rate": 0.0,
        },
        "zones": [
            {"zone": "dock", "rps": 60.0, "requests": 60, "shed": 0,
             "shed_rate": 0.0, "p50_ms": 0.8, "p99_ms": 2.0,
             "innovation_z": 0.38, "burn_rate": 0.0},
        ],
        "alerts": [
            {"scope": "dock", "objective": "p99_ms", "observed": 80.0,
             "target": 50.0, "burn_rate": 2.0, "window": "1s"},
        ],
    }
    text = render_top(payload)
    assert "req/s[1s] 120.0" in text
    assert "cache 99.1%" in text
    assert "dock" in text and "0.38" in text
    assert "[dock] p99_ms observed 80.000 > target 50.000" in text
    empty = render_top({"global": {}, "zones": [], "alerts": []})
    assert "(no zone traffic in window)" in empty
    assert "none" in empty
