"""Closed- and open-loop load over the service's newline-JSON protocol.

One process, a fixed number of TCP connections, pipelined requests
matched to responses by their echoed ``id``.

- :func:`closed_loop` keeps ``depth`` requests in flight per connection:
  a completed request is replaced at once, so the server sees a constant
  backlog and the completion rate is the most it can sustain.
- :func:`open_loop` sends each request at its scheduled *due* time, no
  matter how the server keeps up, and times every request from that due
  time.  If the generator itself falls behind (its event loop stalled),
  the requests it sends late still carry the wait since they were due,
  so a stall is charged to every request it delayed.
"""

from __future__ import annotations

import asyncio
import json
import math
import time

perf = time.perf_counter

#: How early the open-loop generator wakes before a due time to spin.
SPIN_SECONDS = 0.002


def response_id(line: bytes):
    """The echoed request id of one response line.

    The server adds ``id`` as the last key of every response object, so
    the id is read off the end of the line without decoding the rest;
    anything else falls back to a full decode.
    """
    at = line.rfind(b'"id":')
    if at >= 0 and line.endswith(b"}\n"):
        try:
            return int(line[at + 5:-2])
        except ValueError:
            pass
    return json.loads(line).get("id")


class Counter:
    """Request lines sent to one server, over every connection."""

    def __init__(self) -> None:
        self.sent = 0


class Conn:
    """One pipelined connection; each response line goes to
    ``handler(ctx, line, t)`` with ``t`` its arrival time."""

    def __init__(self, reader, writer, counter: Counter) -> None:
        self.reader = reader
        self.writer = writer
        self.counter = counter
        self.pending: dict[int, object] = {}
        self.handler = None
        self.next_id = 0
        self.closed = False
        self.task = asyncio.ensure_future(self._read())

    @classmethod
    async def open(cls, host: str, port: int, counter: Counter) -> "Conn":
        reader, writer = await asyncio.open_connection(host, port, limit=1 << 24)
        return cls(reader, writer, counter)

    async def _read(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                t = perf()
                ctx = self.pending.pop(response_id(line), None)
                if ctx is not None and self.handler is not None:
                    self.handler(ctx, line, t)
        except (ConnectionError, OSError, ValueError):
            pass
        finally:
            self.closed = True

    def send(self, body: str, ctx) -> None:
        """Send one request; ``body`` is its JSON object without the id."""
        rid = self.next_id
        self.next_id += 1
        self.pending[rid] = ctx
        self.counter.sent += 1
        self.writer.write(f'{body[:-1]},"id":{rid}}}\n'.encode())

    async def call(self, request: dict, timeout: float = 60.0) -> dict:
        """One request/response round trip (for control ops)."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        saved = self.handler
        self.handler = lambda ctx, line, t: ctx.done() or ctx.set_result(json.loads(line))
        try:
            self.send(json.dumps(request, separators=(",", ":")), future)
            await self.writer.drain()
            return await asyncio.wait_for(future, timeout)
        finally:
            self.handler = saved

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self.task.cancel()
        await asyncio.gather(self.task, return_exceptions=True)


async def _drain(conns, deadline: float) -> None:
    while any(c.pending and not c.closed for c in conns) and perf() < deadline:
        await asyncio.sleep(0.005)


def _abandon(conns) -> int:
    """Drop what is still pending after the drain deadline; returns the count."""
    lost = 0
    for conn in conns:
        lost += len(conn.pending)
        conn.pending.clear()
    return lost


async def pipelined(conns, bodies, depth: int, on_response, timeout: float = 120.0) -> int:
    """Send every body in ``bodies`` with at most ``depth`` in flight per
    connection (round-robin); returns the number never answered."""
    queue = list(bodies)
    cursor = 0

    def refill(conn) -> None:
        nonlocal cursor
        while cursor < len(queue) and len(conn.pending) < depth:
            conn.send(queue[cursor], queue[cursor])
            cursor += 1

    for conn in conns:
        conn.handler = lambda ctx, line, t, c=conn: (on_response(ctx, line, t), refill(c))
        refill(conn)
    deadline = perf() + timeout
    while (cursor < len(queue) or any(c.pending for c in conns)) and perf() < deadline:
        if all(c.closed for c in conns):
            break
        await asyncio.sleep(0.002)
    return _abandon(conns) + (len(queue) - cursor)


async def closed_loop(conns, next_body, depth: int, seconds: float, on_response,
                      drain_timeout: float = 30.0) -> dict:
    """``depth`` requests in flight per connection for ``seconds``.

    ``next_body()`` yields the next request body; ``on_response(body,
    line, t)`` sees every answer and returns whether it succeeded.
    Completions are counted per whole second of the window; answers after
    the window closes are drained (and checked) but not counted toward
    the rate.
    """
    per_second = [0] * max(1, math.ceil(seconds))
    state = {"done": 0, "failed": 0, "sent": 0}

    def send_next(conn) -> None:
        body = next_body()
        state["sent"] += 1
        conn.send(body, body)

    def make_handler(conn):
        def handler(body, line, t):
            ok = on_response(body, line, t)
            if t < end:
                if ok:
                    state["done"] += 1
                    per_second[min(int(t - start), len(per_second) - 1)] += 1
                else:
                    state["failed"] += 1
                send_next(conn)
        return handler

    start = perf()
    end = start + seconds
    for conn in conns:
        conn.handler = make_handler(conn)
        for _ in range(depth):
            send_next(conn)
    await asyncio.sleep(max(0.0, end - perf()))
    await _drain(conns, perf() + drain_timeout)
    return {
        "seconds": seconds,
        "completed": state["done"],
        "failed": state["failed"],
        "sent": state["sent"],
        "lost": _abandon(conns),
        "per_second": per_second,
    }


async def open_loop(conns, schedule, on_response, drain_timeout: float = 30.0) -> dict:
    """Send ``schedule`` = ``[(offset_s, body), ...]`` at its due times.

    Returns per-request latency from the due time (``inf`` for requests
    never answered), the generator's lag (send time minus due time), the
    generator's own CPU seconds and ``start``, the ``perf_counter`` time
    offsets count from.  Requests alternate over ``conns``.
    """
    n = len(schedule)
    latency = [math.inf] * n
    lag = [0.0] * n

    def handler(ctx, line, t):
        index, due = ctx
        if on_response(schedule[index][1], line, t):
            latency[index] = t - due
    for conn in conns:
        conn.handler = handler
    cpu0 = time.process_time()
    start = perf() + 0.01
    for index, (offset, body) in enumerate(schedule):
        due = start + offset
        # Sleep to within SPIN_SECONDS of the due time, then spin (still
        # yielding, so responses are read): a timer wake-up on a
        # virtualised host can come milliseconds late, and that lag would
        # be charged to the server.
        delay = due - SPIN_SECONDS - perf()
        if delay > 0:
            await asyncio.sleep(delay)
        while perf() < due:
            await asyncio.sleep(0)
        lag[index] = perf() - due
        conns[index % len(conns)].send(body, (index, due))
    await _drain(conns, perf() + drain_timeout)
    lost = _abandon(conns)
    return {
        "latency": latency,
        "lag": lag,
        "lost": lost,
        "generator_cpu_s": time.process_time() - cpu0,
        "start": start,
        "span_s": perf() - start,
    }
