"""Load generator: concurrent newline-JSON clients with exact latency tails.

Drives an :class:`~repro.service.server.EstimationServer` with
``connections`` concurrent pipelined clients round-robining ``estimate``
requests over the configured zones.  Two seed modes:

- ``warm`` — every client cycles a small seed window per zone, so after
  the first pass almost every request is a cache hit (memory LRU or disk
  cache): this measures the serving path itself, the regime the p99 SLO
  gates.
- ``cold`` — every request gets a fresh, globally unique client-chosen
  seed, so every tick is real engine work with no cache reuse.
- ``auto`` — no seed in the request: the server allocates the zone's next
  contiguous seed, so same-tick requests against one zone form a single
  contiguous run — the shape that measures coalescing efficiency
  (requests per engine call) under compute-bound load.

Latency quantiles here are *exact* (sorted client-side samples), unlike
the ±4.4 % log-bucketed server-side histograms — the benchmark reports
both so the bucketing error is itself visible.

Besides the end-of-run totals the report carries ``per_second`` rolling
stats (requests, rps, exact p50/p99 per wall-clock second of the run),
and a ``progress`` callback receives each completed second's entry as it
closes — the client-side mirror of the server's 1 s telemetry windows,
which is what lets tests reconcile the two independent views of the same
load.

Non-429 failures are counted in ``errors`` and broken down in
``errors_by_code``: ``{code: {"count": n, "first_error": message}}``, keyed
by the response's ``code`` as a string, so a failed run says which errors
it saw without a rerun.
"""

from __future__ import annotations

import asyncio
import json
import time

__all__ = ["LoadReport", "run_load"]


class LoadReport(dict):
    """Plain dict subclass so callers may attr-read the common fields."""

    def __getattr__(self, name):
        try:
            return self[name]
        except KeyError as exc:  # pragma: no cover - attr typo guard
            raise AttributeError(name) from exc


def _exact_quantile(sorted_samples: list[float], q: float) -> float | None:
    """Nearest-rank quantile over already-sorted samples."""
    if not sorted_samples:
        return None
    rank = max(1, -(-int(q * len(sorted_samples) * 1_000_000) // 1_000_000))
    rank = min(max(rank, 1), len(sorted_samples))
    return sorted_samples[rank - 1]


async def _client(
    host: str,
    port: int,
    zones: list[str],
    requests: int,
    client_index: int,
    seed_mode: str,
    warm_window: int,
    pipeline: int,
    record,
    counters: dict,
) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    pending: dict[int, float] = {}
    next_id = 0
    sent = 0
    try:

        async def drain_one() -> None:
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            response = json.loads(line)
            started = pending.pop(response["id"])
            record(time.perf_counter() - started)
            if response.get("ok"):
                counters["ok"] += 1
            elif response.get("code") == 429:
                counters["shed"] += 1
            else:
                counters["errors"] += 1
                entry = counters["errors_by_code"].setdefault(
                    str(response.get("code")),
                    {"count": 0, "first_error": response.get("error")},
                )
                entry["count"] += 1

        while sent < requests or pending:
            while sent < requests and len(pending) < pipeline:
                zone = zones[(client_index + sent) % len(zones)]
                request = {"op": "estimate", "zone": zone, "id": next_id}
                if seed_mode == "warm":
                    request["seed"] = sent % warm_window  # shared window → hot
                elif seed_mode == "cold":
                    request["seed"] = client_index * requests + sent
                # "auto": omit the seed — the server allocates contiguously
                pending[next_id] = time.perf_counter()
                next_id += 1
                sent += 1
                writer.write((json.dumps(request) + "\n").encode())
            await writer.drain()
            await drain_one()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, OSError):
            pass


async def run_load(
    *,
    host: str,
    port: int,
    zones: list[str],
    connections: int = 8,
    requests_per_connection: int = 100,
    seed_mode: str = "warm",
    warm_window: int = 8,
    pipeline: int = 4,
    progress=None,
) -> LoadReport:
    """Run the load and return a JSON-ready report with exact p50/p99.

    ``pipeline`` is the per-connection in-flight cap; total offered
    concurrency is ``connections × pipeline``, which is what pushes the
    admission controller when it exceeds ``max_concurrent + max_queue``.

    ``progress`` (optional callable) receives one dict per completed
    wall-clock second of the run — ``{"second", "requests", "rps",
    "p50_ms", "p99_ms"}`` — as the second closes; the full list is also
    returned as the report's ``per_second`` field.
    """
    if seed_mode not in ("warm", "cold", "auto"):
        raise ValueError(
            f"seed_mode must be 'warm', 'cold' or 'auto', got {seed_mode!r}"
        )
    if not zones:
        raise ValueError("run_load needs at least one zone name")
    latencies: list[float] = []
    counters = {"ok": 0, "shed": 0, "errors": 0, "errors_by_code": {}}
    buckets: dict[int, list[float]] = {}
    per_second: list[dict] = []
    next_second = 0
    started = time.perf_counter()

    def record(latency: float) -> None:
        latencies.append(latency)
        buckets.setdefault(int(time.perf_counter() - started), []).append(latency)

    def finalise(second: int) -> None:
        samples = sorted(buckets.pop(second, []))
        entry = {
            "second": second,
            "requests": len(samples),
            "rps": float(len(samples)),
            "p50_ms": (
                None if not samples else 1e3 * _exact_quantile(samples, 0.50)
            ),
            "p99_ms": (
                None if not samples else 1e3 * _exact_quantile(samples, 0.99)
            ),
        }
        per_second.append(entry)
        if progress is not None:
            progress(entry)

    async def reporter() -> None:
        nonlocal next_second
        while True:
            await asyncio.sleep(0.2)
            current = int(time.perf_counter() - started)
            while next_second < current:
                finalise(next_second)
                next_second += 1

    reporter_task = asyncio.ensure_future(reporter())
    try:
        await asyncio.gather(
            *(
                _client(
                    host,
                    port,
                    zones,
                    requests_per_connection,
                    index,
                    seed_mode,
                    warm_window,
                    pipeline,
                    record,
                    counters,
                )
                for index in range(connections)
            )
        )
    finally:
        reporter_task.cancel()
        await asyncio.gather(reporter_task, return_exceptions=True)
    elapsed = time.perf_counter() - started
    # Flush the tail: every second with samples (plus the gaps between
    # them) gets its entry even when the run ends mid-second.
    last = max(buckets, default=next_second - 1)
    while next_second <= last:
        finalise(next_second)
        next_second += 1
    latencies.sort()
    total = connections * requests_per_connection
    return LoadReport(
        seed_mode=seed_mode,
        connections=connections,
        pipeline=pipeline,
        requests=total,
        ok=counters["ok"],
        shed=counters["shed"],
        errors=counters["errors"],
        errors_by_code=counters["errors_by_code"],
        seconds=elapsed,
        rps=total / elapsed if elapsed > 0 else 0.0,
        p50_ms=1e3 * (_exact_quantile(latencies, 0.50) or 0.0),
        p99_ms=1e3 * (_exact_quantile(latencies, 0.99) or 0.0),
        max_ms=1e3 * (latencies[-1] if latencies else 0.0),
        per_second=per_second,
    )
