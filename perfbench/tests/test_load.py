"""Open- and closed-loop accounting against fake servers on loopback."""

import asyncio
import json
import time

import pytest

from load import Conn, Counter, closed_loop, open_loop, response_id

SPACING = 0.005
COUNT = 80
STALL_AT = 20
STALL = 0.10


def _ok(body, line, t):
    return b'"ok":true' in line


async def _serve(handler):
    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def _echo(line: bytes) -> bytes:
    rid = json.loads(line)["id"]
    return f'{{"ok":true,"id":{rid}}}\n'.encode()


def _schedule():
    return [(i * SPACING, '{"op":"ping"}') for i in range(COUNT)]


async def _run_open(handler):
    server, port = await _serve(handler)
    try:
        conn = await Conn.open("127.0.0.1", port, Counter())
        result = await open_loop([conn], _schedule(), _ok, drain_timeout=5.0)
        await conn.close()
    finally:
        server.close()
        await server.wait_closed()
    return result


def test_non_blocking_stall_is_absorbed_by_later_requests():
    """The server stops answering for STALL seconds; requests due during the
    stall are sent on time but each waits for the stall to end."""
    marks = {}

    async def handler(reader, writer):
        seen = 0
        while line := await reader.readline():
            seen += 1
            if seen == STALL_AT:
                marks["start"] = time.perf_counter()
                await asyncio.sleep(STALL)
                marks["end"] = time.perf_counter()
            writer.write(_echo(line))
        writer.close()

    result = asyncio.run(_run_open(handler))
    lat, lag = result["latency"], result["lag"]
    assert result["lost"] == 0
    # The generator kept its schedule through the stall (allowing for
    # ordinary timer jitter on a loaded host).
    assert max(lag) < STALL / 4
    stalled = STALL_AT - 1
    assert lat[stalled] >= STALL * 0.9
    # Every later request due before the stall ended waited for what was
    # left of it, counted from its due time.
    waited = 0
    for i in range(stalled, COUNT):
        left = marks["end"] - (result["start"] + i * SPACING)
        if left > 0:
            waited += 1
            assert lat[i] >= left - 1e-3, (i, lat[i], left)
    assert waited >= STALL / SPACING / 2
    assert lat[-1] < STALL / 2  # well after the stall, latency is back to normal


def test_blocking_stall_charges_the_generator_lag_to_requests():
    """The stall blocks the event loop the generator runs on, so requests due
    during it go out late; their latency still counts from the due time."""

    async def handler(reader, writer):
        seen = 0
        while line := await reader.readline():
            seen += 1
            if seen == STALL_AT:
                time.sleep(STALL)  # freezes the whole loop, generator included
            writer.write(_echo(line))
        writer.close()

    result = asyncio.run(_run_open(handler))
    lat, lag = result["latency"], result["lag"]
    late = [i for i in range(COUNT) if lag[i] > 2 * SPACING]
    assert late, "the blocked generator must have sent some requests late"
    for i in late:
        assert lat[i] >= lag[i]
    # The first request sent after the freeze was due about STALL earlier.
    assert max(lag) >= STALL * 0.5
    assert max(lat) >= STALL * 0.5


def test_unanswered_requests_are_lost_and_infinitely_late():
    async def handler(reader, writer):
        while line := await reader.readline():
            if json.loads(line)["id"] % 2 == 0:
                writer.write(_echo(line))
        writer.close()

    async def run():
        server, port = await _serve(handler)
        try:
            conn = await Conn.open("127.0.0.1", port, Counter())
            schedule = [(i * 0.001, '{"op":"ping"}') for i in range(10)]
            result = await open_loop([conn], schedule, _ok, drain_timeout=0.2)
            await conn.close()
        finally:
            server.close()
            await server.wait_closed()
        return result

    result = asyncio.run(run())
    assert result["lost"] == 5
    assert sum(1 for v in result["latency"] if v == float("inf")) == 5


def test_closed_loop_keeps_depth_in_flight_and_counts_the_window():
    in_flight = []

    async def handler(reader, writer):
        pending = []
        while line := await reader.readline():
            pending.append(line)
            if len(pending) == 4:  # answer in bursts of the full depth
                in_flight.append(len(pending))
                for item in pending:
                    writer.write(_echo(item))
                pending.clear()
        writer.close()

    async def run():
        server, port = await _serve(handler)
        try:
            counter = Counter()
            conn = await Conn.open("127.0.0.1", port, counter)
            body = iter(lambda: '{"op":"ping"}', None)
            result = await closed_loop([conn], lambda: next(body), 4, 0.3, _ok, drain_timeout=0.5)
            await conn.close()
        finally:
            server.close()
            await server.wait_closed()
        return result, counter

    result, counter = asyncio.run(run())
    assert set(in_flight) == {4}
    assert result["completed"] == sum(result["per_second"]) > 0
    assert result["sent"] == counter.sent
    # After the window the last burst can never complete: it is lost, not counted.
    assert result["lost"] <= 4


def test_response_id_reads_the_trailing_id():
    assert response_id(b'{"ok":true,"record":{"id":3},"id":17}\n') == 17
    assert response_id(b'{"id": 5, "ok": true}\n') == 5
    with pytest.raises(ValueError):
        response_id(b"not json\n")
