"""End-to-end server tests over a real loopback socket.

Covers the full request path (readline → parse → admission → coalesce →
engine → response), pipelining with out-of-order completion, zone CRUD,
tracker fusion, admission shedding under saturation, and the loadgen.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.experiments.sweep import execute_point_inline
from repro.obs import metrics
from repro.service.loadgen import run_load
from repro.service.server import EstimationServer
from repro.service.zones import ZoneConfig

N = 3_000


async def start_server(cache, **kwargs):
    kwargs.setdefault(
        "zones",
        {
            "z0": ZoneConfig(n=N, engine="analytic"),
            "z1": ZoneConfig(n=N, engine="batched"),
            "zt": ZoneConfig(n=N, engine="analytic", tracker="ekf"),
        },
    )
    server = EstimationServer(cache=cache, executor_workers=2, **kwargs)
    await server.start()
    return server


async def talk(port, requests):
    """Send all requests pipelined, return responses keyed by id."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for request in requests:
        writer.write((json.dumps(request) + "\n").encode())
    await writer.drain()
    responses = {}
    for _ in requests:
        response = json.loads(await reader.readline())
        responses[response.get("id")] = response
    writer.close()
    await writer.wait_closed()
    return responses


def test_estimate_over_the_wire_bit_identical_to_direct_engine(cache):
    async def scenario():
        server = await start_server(cache)
        try:
            responses = await talk(
                server.bound_port,
                [
                    {"op": "estimate", "zone": "z0", "seed": 4, "id": 0},
                    {"op": "estimate", "zone": "z1", "seed": 4, "id": 1},
                ],
            )
        finally:
            await server.stop()
        return responses

    responses = asyncio.run(scenario())
    for rid, zone_n, engine in ((0, N, "analytic"), (1, N, "batched")):
        response = responses[rid]
        assert response["ok"]
        config = ZoneConfig(n=zone_n, engine=engine)
        payload, _ = execute_point_inline(
            config.point(base_seed=4, trials=1), cache=None
        )
        direct = payload["records"][0]
        assert response["n_hat"] == direct["n_hat"]
        assert response["record"] == direct


def test_pipelined_requests_match_ids_out_of_order(cache):
    async def scenario():
        server = await start_server(cache)
        try:
            requests = [
                {"op": "estimate", "zone": "z0", "seed": seed, "id": seed}
                for seed in range(6)
            ] + [{"op": "ping", "id": 99}]
            responses = await talk(server.bound_port, requests)
        finally:
            await server.stop()
        return responses

    responses = asyncio.run(scenario())
    assert responses[99]["pong"] is True
    seeds = {rid: responses[rid]["seed"] for rid in range(6)}
    assert seeds == {i: i for i in range(6)}


def test_auto_seed_allocation_is_contiguous_per_zone(cache):
    async def scenario():
        server = await start_server(cache)
        try:
            responses = await talk(
                server.bound_port,
                [{"op": "estimate", "zone": "z0", "id": i} for i in range(3)],
            )
        finally:
            await server.stop()
        return responses

    responses = asyncio.run(scenario())
    assert sorted(r["seed"] for r in responses.values()) == [0, 1, 2]


def test_zone_crud_and_errors(cache):
    async def scenario():
        server = await start_server(cache)
        try:
            responses = await talk(
                server.bound_port,
                [
                    {"op": "zone.put", "zone": "new",
                     "config": {"n": 1234, "eps": 0.1}, "id": 0},
                    {"op": "zone.get", "zone": "new", "id": 1},
                    {"op": "zone.list", "id": 2},
                    {"op": "zone.get", "zone": "ghost", "id": 3},
                    {"op": "zone.put", "zone": "bad",
                     "config": {"n": -5}, "id": 4},
                    {"op": "estimate", "zone": "z0", "seed": -1, "id": 5},
                    {"op": "health", "id": 6},
                ],
            )
        finally:
            await server.stop()
        return responses

    responses = asyncio.run(scenario())
    assert responses[0]["zone"]["config"]["n"] == 1234
    assert responses[1]["zone"]["config"]["eps"] == 0.1
    assert {z["name"] for z in responses[2]["zones"]} >= {"new", "z0", "z1"}
    assert responses[3] == {"ok": False, "code": 404,
                            "error": "unknown zone 'ghost'", "id": 3}
    assert responses[4]["code"] == 400
    assert responses[5]["code"] == 400
    health = responses[6]
    assert health["zones"] == 4 and health["admission"]["shed"] == 0


def test_malformed_line_gets_400_without_killing_the_connection(cache):
    async def scenario():
        server = await start_server(cache)
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.bound_port
            )
            writer.write(b"this is not json\n")
            writer.write(b'{"op": "ping", "id": 1}\n')
            await writer.drain()
            bad = json.loads(await reader.readline())
            good = json.loads(await reader.readline())
            writer.close()
            await writer.wait_closed()
        finally:
            await server.stop()
        return bad, good

    bad, good = asyncio.run(scenario())
    assert bad["ok"] is False and bad["code"] == 400
    assert good["ok"] is True and good["id"] == 1


def test_track_fuses_estimates_and_reports_tracker_state(cache):
    async def scenario():
        server = await start_server(cache)
        try:
            responses = await talk(
                server.bound_port,
                [
                    {"op": "track", "zone": "zt", "id": 0},
                    {"op": "track", "zone": "zt", "id": 1},
                    {"op": "track", "zone": "z0", "id": 2},  # no tracker: 400
                ],
            )
            # Separate round-trip: responses complete out of order, so a
            # pipelined zone.get could answer before the tracks finish.
            after = await talk(
                server.bound_port, [{"op": "zone.get", "zone": "zt", "id": 3}]
            )
            responses.update(after)
        finally:
            await server.stop()
        return responses

    responses = asyncio.run(scenario())
    for rid in (0, 1):
        tracker = responses[rid]["tracker"]
        assert tracker["estimate"] > 0 and tracker["variance"] > 0
    assert responses[2]["code"] == 400
    assert responses[3]["zone"]["tracker_epoch"] == 2
    assert metrics.get("service.tracker.updates") == 2


def test_admission_saturation_sheds_with_429(cache):
    """Offered concurrency above slots+queue must produce explicit 429s."""

    async def scenario():
        server = await start_server(
            cache,
            zones={"z0": ZoneConfig(n=N, engine="analytic")},
            max_concurrent=1,
            max_queue=1,
            tick_seconds=0.05,  # hold a tick open so requests pile up
        )
        try:
            requests = [
                {"op": "estimate", "zone": "z0", "seed": seed, "id": seed}
                for seed in range(8)
            ]
            responses = await talk(server.bound_port, requests)
        finally:
            await server.stop()
        return responses, server

    responses, server = asyncio.run(scenario())
    shed = [r for r in responses.values() if not r["ok"]]
    served = [r for r in responses.values() if r["ok"]]
    assert shed, "saturation produced no 429s"
    assert served, "shedding must not starve admitted requests"
    for response in shed:
        assert response["code"] == 429
        assert "retry" in response["error"]
    assert server.admission.shed == len(shed)
    assert metrics.get("service.admission.shed") == len(shed)


def test_shutdown_op_stops_the_server(cache):
    async def scenario():
        server = await start_server(cache)
        port = server.bound_port
        responses = await talk(port, [{"op": "shutdown", "id": 0}])
        assert responses[0]["stopping"] is True
        await asyncio.wait_for(server.serve_until_shutdown(), 5)
        await server.stop()

    asyncio.run(scenario())


def test_loadgen_round_trip_and_metrics(cache):
    async def scenario():
        server = await start_server(cache)
        try:
            report = await run_load(
                host="127.0.0.1",
                port=server.bound_port,
                zones=["z0", "z1"],
                connections=3,
                requests_per_connection=10,
                seed_mode="warm",
                warm_window=4,
            )
        finally:
            await server.stop()
        return report

    report = asyncio.run(scenario())
    assert report.requests == 30
    assert report.ok == 30 and report.errors == 0 and report.shed == 0, (
        report.ok,
        report.errors_by_code,
    )
    assert report.p50_ms <= report.p99_ms <= report.max_ms
    assert metrics.get("service.requests") == 30
    hist = metrics.histograms()["service.request.seconds"]
    assert hist["count"] == 30
    assert metrics.quantile(hist, 0.99) >= metrics.quantile(hist, 0.5)


def test_loadgen_breaks_errors_down_by_code(cache):
    """Every non-429 failure lands in ``errors_by_code`` under its response
    code, with the first message seen; the counts sum to ``errors``."""

    async def scenario():
        server = await start_server(cache)
        try:
            return await run_load(
                host="127.0.0.1",
                port=server.bound_port,
                zones=["z0", "no-such-zone"],
                connections=2,
                requests_per_connection=6,
                seed_mode="warm",
            )
        finally:
            await server.stop()

    report = asyncio.run(scenario())
    assert report.ok == 6 and report.errors == 6 and report.shed == 0
    assert len(report.errors_by_code) == 1
    (code, entry), = report.errors_by_code.items()
    assert code.isdigit() and int(code) != 429
    assert entry["count"] == 6
    assert "no-such-zone" in entry["first_error"]
    assert json.loads(json.dumps(report))["errors_by_code"] == report.errors_by_code


def test_zone_sketch_and_merge_round_trip(cache):
    """The sketch ops: per-zone sketches built server-side merge into the
    exact sketch-of-union, and payloads round-trip through the wire."""
    import numpy as np

    from repro.experiments.workloads import population
    from repro.sketch import HLLSketch

    async def scenario():
        server = await start_server(cache)
        try:
            return await talk(
                server.bound_port,
                [
                    {"op": "zone.sketch", "zone": "z0", "p": 12, "seed": 5, "id": 1},
                    {"op": "zone.sketch", "zone": "z1", "p": 12, "seed": 5, "id": 2},
                ],
            )
        finally:
            await server.stop()

    responses = asyncio.run(scenario())
    for rid in (1, 2):
        assert responses[rid]["ok"] is True
        assert responses[rid]["n_true"] == N
        bound = responses[rid]["error_bound"]
        assert abs(responses[rid]["n_hat"] - N) / N < 3 * bound

    # Server-built sketches must equal a direct local build of the same zone
    # population under the same (p, seed) — the wire adds nothing.
    sketch = HLLSketch.from_payload(responses[1]["sketch"])
    pop = population("T1", N, seed=0, copy=False)
    local = HLLSketch(12, seed=5).add_ids(pop.tag_ids)
    assert np.array_equal(sketch.registers, local.registers)

    async def merge_scenario():
        server = await start_server(cache)
        try:
            built = await talk(
                server.bound_port,
                [
                    {"op": "zone.sketch", "zone": "z0", "p": 10, "seed": 9, "id": 1},
                    {"op": "zone.sketch", "zone": "z1", "p": 10, "seed": 9, "id": 2},
                ],
            )
            merged = await talk(
                server.bound_port,
                [
                    {
                        "op": "sketch.merge",
                        "sketches": [built[1]["sketch"], built[2]["sketch"]],
                        "id": 3,
                    }
                ],
            )
            return built, merged
        finally:
            await server.stop()

    built, merged = asyncio.run(merge_scenario())
    assert merged[3]["ok"] is True
    assert merged[3]["n_sketches"] == 2
    # z0 and z1 share the same population spec (same n/distribution/pop_seed),
    # so the union is the same set and the merge must be idempotent: the
    # merged sketch equals each input.
    union = HLLSketch.from_payload(merged[3]["sketch"])
    a = HLLSketch.from_payload(built[1]["sketch"])
    assert np.array_equal(union.registers, a.registers)
    assert metrics.get("service.sketch.builds") == 4
    assert metrics.get("service.sketch.merges") == 1


def test_sketch_op_errors(cache):
    async def scenario():
        server = await start_server(cache)
        try:
            good = await talk(
                server.bound_port,
                [{"op": "zone.sketch", "zone": "z0", "id": 0}],
            )
            return good, await talk(
                server.bound_port,
                [
                    {"op": "zone.sketch", "zone": "nope", "id": 1},
                    {"op": "zone.sketch", "zone": "z0", "p": 3, "id": 2},
                    {"op": "zone.sketch", "zone": "z0", "p": True, "id": 3},
                    {"op": "zone.sketch", "zone": "z0", "seed": -1, "id": 4},
                    {"op": "sketch.merge", "sketches": [], "id": 5},
                    {"op": "sketch.merge", "sketches": "junk", "id": 6},
                    {"op": "sketch.merge", "sketches": [{"p": 12}], "id": 7},
                    {
                        "op": "sketch.merge",
                        "sketches": [
                            good[0]["sketch"],
                            {**good[0]["sketch"], "seed": 999},
                        ],
                        "id": 8,
                    },
                ],
            )
        finally:
            await server.stop()

    good, responses = asyncio.run(scenario())
    assert good[0]["ok"] is True  # default p/seed accepted
    assert responses[1]["code"] == 404
    for rid in (2, 3, 4, 5, 6, 7, 8):
        assert responses[rid]["ok"] is False
        assert responses[rid]["code"] == 400


def test_loadgen_rejects_bad_args():
    with pytest.raises(ValueError, match="seed_mode"):
        asyncio.run(
            run_load(host="h", port=1, zones=["z"], seed_mode="lukewarm")
        )
    with pytest.raises(ValueError, match="zone"):
        asyncio.run(run_load(host="h", port=1, zones=[]))
