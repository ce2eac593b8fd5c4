"""End-to-end telemetry tests: ops surface, SLO breaches, reconciliation.

Exercises the live-telemetry wiring through a real loopback server — the
``metrics``/``metrics.expose``/``metrics.watch`` ops, breach detection on
sub-second window slots, the windowed-vs-lifetime reconciliation invariant,
the loadgen's rolling per-second stats, and the ``obs top`` CLI.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs import metrics
from repro.obs.live import SLOSpec, WindowSpec, zone_metric
from repro.service.loadgen import run_load
from tests.service.test_server import start_server, talk


async def watch_talk(port, request, expected_lines):
    """Send one request and read ``expected_lines`` response lines."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write((json.dumps(request) + "\n").encode())
    await writer.drain()
    responses = [json.loads(await reader.readline()) for _ in range(expected_lines)]
    writer.close()
    await writer.wait_closed()
    return responses


# ----------------------------------------------------------------------
# metrics op: server-side quantiles
# ----------------------------------------------------------------------
def test_metrics_op_reports_quantiles_for_every_histogram(cache):
    async def scenario():
        server = await start_server(cache)
        try:
            await talk(
                server.bound_port,
                [
                    {"op": "estimate", "zone": "z0", "seed": s, "id": s}
                    for s in range(4)
                ],
            )
            (response,) = (
                await talk(server.bound_port, [{"op": "metrics", "id": 9}])
            ).values()
        finally:
            await server.stop()
        return response

    response = asyncio.run(scenario())
    assert response["ok"]
    assert response["metrics"]["counters"]["service.requests"] >= 4
    q = response["quantiles"]["service.request.seconds"]
    assert set(q) == {"p50", "p90", "p99", "count", "mean"}
    assert q["count"] >= 4
    assert 0 < q["p50"] <= q["p90"] <= q["p99"]
    assert q["mean"] == pytest.approx(
        response["metrics"]["histograms"]["service.request.seconds"]["sum"]
        / q["count"]
    )


# ----------------------------------------------------------------------
# metrics.expose: Prometheus text exposition
# ----------------------------------------------------------------------
def test_metrics_expose_renders_prometheus_text_with_zone_labels(cache):
    async def scenario():
        server = await start_server(cache)
        try:
            await talk(
                server.bound_port,
                [
                    {"op": "estimate", "zone": "z0", "seed": 1, "id": 0},
                    {"op": "estimate", "zone": "z1", "seed": 1, "id": 1},
                ],
            )
            (response,) = (
                await talk(server.bound_port, [{"op": "metrics.expose", "id": 2}])
            ).values()
        finally:
            await server.stop()
        return response

    response = asyncio.run(scenario())
    assert response["ok"]
    assert response["content_type"] == "text/plain; version=0.0.4"
    text = response["text"]
    assert "# TYPE repro_service_requests_total counter" in text
    assert 'repro_service_zone_requests_total{zone="z0"} 1.0' in text
    assert 'repro_service_zone_requests_total{zone="z1"} 1.0' in text
    assert 'repro_service_request_seconds{quantile="0.99"}' in text
    # The live registry adds windowed-rate gauges to the exposition.
    assert 'repro_service_requests_rate{window="1s"}' in text


# ----------------------------------------------------------------------
# metrics.watch: the streaming op
# ----------------------------------------------------------------------
def test_metrics_watch_streams_ticks_with_done_marker(cache):
    async def scenario():
        server = await start_server(cache)
        try:
            await talk(
                server.bound_port,
                [{"op": "estimate", "zone": "z0", "seed": 3, "id": 0}],
            )
            ticks = await watch_talk(
                server.bound_port,
                {"op": "metrics.watch", "ticks": 3, "interval": 0.02, "id": 5},
                expected_lines=3,
            )
        finally:
            await server.stop()
        return ticks

    ticks = asyncio.run(scenario())
    assert [t["tick"] for t in ticks] == [0, 1, 2]
    assert [t["done"] for t in ticks] == [False, False, True]
    assert all(t["ok"] and t["id"] == 5 for t in ticks)
    snap = ticks[0]["watch"]
    assert snap["global"]["requests"] >= 1
    zones = {row["zone"] for row in snap["zones"]}
    assert "z0" in zones
    assert snap["alerts"] == []


def test_metrics_watch_validates_interval_and_ticks(cache):
    bad_requests = [
        {"op": "metrics.watch", "interval": 0.001, "id": 0},  # too fast
        {"op": "metrics.watch", "interval": "1", "id": 1},  # not a number
        {"op": "metrics.watch", "interval": True, "id": 2},  # bool is not a rate
        {"op": "metrics.watch", "ticks": 0, "id": 3},
        {"op": "metrics.watch", "ticks": 2.5, "id": 4},
        {"op": "metrics.watch", "ticks": True, "id": 5},
    ]

    async def scenario():
        server = await start_server(cache)
        try:
            responses = await talk(server.bound_port, bad_requests)
        finally:
            await server.stop()
        return responses

    responses = asyncio.run(scenario())
    assert len(responses) == len(bad_requests)
    for response in responses.values():
        assert not response["ok"]
        assert response["code"] == 400
        assert "must be" in response["error"]


# ----------------------------------------------------------------------
# SLO breach end-to-end (sub-second slots so the test stays fast)
# ----------------------------------------------------------------------
def test_unmeetable_slo_breaches_end_to_end(cache):
    async def scenario():
        server = await start_server(
            cache,
            slo=SLOSpec(p99_ms=0.000001, budget=0.125, burn_slots=4),
            telemetry_windows=(WindowSpec("1s", slots=8, width_seconds=0.05),),
        )
        try:
            deadline = asyncio.get_running_loop().time() + 10.0
            seed = 0
            while not server.telemetry.alerts:
                if asyncio.get_running_loop().time() > deadline:
                    raise AssertionError("no SLO breach within 10 s")
                await talk(
                    server.bound_port,
                    [
                        {"op": "estimate", "zone": "z0", "seed": seed + k, "id": k}
                        for k in range(4)
                    ],
                )
                seed += 4
                await asyncio.sleep(0.05)
            alerts = list(server.telemetry.alerts)
            health = (
                await talk(server.bound_port, [{"op": "health", "id": 0}])
            )[0]
        finally:
            await server.stop()
        return alerts, health

    alerts, health = asyncio.run(scenario())
    assert any(a["objective"] == "p99_ms" for a in alerts)
    breach = next(a for a in alerts if a["objective"] == "p99_ms")
    assert breach["observed"] > breach["target"]
    assert breach["burn_rate"] > 1.0
    assert metrics.get("slo.breach") >= 1
    telemetry = health["telemetry"]
    assert telemetry["alerts"] == len(alerts)
    assert telemetry["slo"]["p99_ms"] == 0.000001
    assert telemetry["windows"]["1s"] == {"slots": 8, "width_seconds": 0.05}
    assert max(telemetry["burn_rates"].values()) > 1.0


def test_default_server_run_stays_breach_free_and_reconciles(cache):
    async def scenario():
        server = await start_server(cache)  # DEFAULT_SLO-free: slo=None
        try:
            report = await run_load(
                host="127.0.0.1",
                port=server.bound_port,
                zones=["z0", "z1"],
                connections=2,
                requests_per_connection=40,
                seed_mode="warm",
            )
            reconcile = server.telemetry.reconcile(
                [
                    "service.requests",
                    "service.engine.calls",
                    "service.cache.memory_hit",
                    zone_metric("z0", "requests"),
                    zone_metric("z1", "requests"),
                ]
            )
        finally:
            await server.stop()
        return report, reconcile

    report, reconcile = asyncio.run(scenario())
    assert report.errors == 0 and report.shed == 0, report.errors_by_code
    # The windowed mirror never drops or double-counts: every counter's
    # lifetime delta equals the sum over ring slots, bit-exactly.
    assert all(entry["exact"] for entry in reconcile.values()), reconcile
    assert reconcile["service.requests"]["lifetime_delta"] >= report.requests
    assert metrics.get("slo.breach") == 0


# ----------------------------------------------------------------------
# loadgen rolling per-second stats
# ----------------------------------------------------------------------
def test_loadgen_per_second_entries_cover_every_request(cache):
    async def scenario():
        server = await start_server(cache)
        try:
            progress_entries = []
            report = await run_load(
                host="127.0.0.1",
                port=server.bound_port,
                zones=["z0"],
                connections=2,
                requests_per_connection=30,
                seed_mode="warm",
                progress=progress_entries.append,
            )
        finally:
            await server.stop()
        return report, progress_entries

    report, progress_entries = asyncio.run(scenario())
    assert report.per_second, "per-second stats missing from the load report"
    for entry in report.per_second:
        assert set(entry) == {"second", "requests", "rps", "p50_ms", "p99_ms"}
        if entry["requests"]:
            assert 0 < entry["p50_ms"] <= entry["p99_ms"]
    assert [e["second"] for e in report.per_second] == list(
        range(len(report.per_second))
    )
    # Tail flush: the buckets partition the run — no request is lost.
    assert sum(e["requests"] for e in report.per_second) == report.requests
    # Entries finalised while the run was live were streamed to `progress`.
    assert progress_entries == report.per_second[: len(progress_entries)]
    assert json.dumps(report)  # the report is a JSON-ready dict subclass


# ----------------------------------------------------------------------
# obs top CLI (one frame against a live server)
# ----------------------------------------------------------------------
def test_cli_obs_top_renders_one_frame(cache, capsys):
    from repro.cli import main as cli_main

    async def scenario():
        server = await start_server(cache)
        try:
            await talk(
                server.bound_port,
                [{"op": "estimate", "zone": "z0", "seed": 2, "id": 0}],
            )
            # The CLI is blocking socket I/O: run it off the event loop.
            rc = await asyncio.to_thread(
                cli_main,
                [
                    "obs",
                    "top",
                    "--port",
                    str(server.bound_port),
                    "--count",
                    "1",
                    "--interval",
                    "0.05",
                    "--no-clear",
                ],
            )
        finally:
            await server.stop()
        return rc

    assert asyncio.run(scenario()) == 0
    out = capsys.readouterr().out
    assert "req/s" in out
    assert "z0" in out


def test_cli_obs_top_reports_unreachable_server(capsys):
    from repro.cli import main as cli_main

    assert cli_main(["obs", "top", "--port", "1", "--count", "1"]) == 2
    assert "cannot reach" in capsys.readouterr().err
