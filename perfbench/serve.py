"""The serving workloads: ``serve_warm`` and ``serve_cold``.

The estimation server runs in its own process (``server_main.py``), so
the load generator's CPU is never billed to the server.  One run:

1. *set-up*, timed ``SETUPS`` times from a fresh process each: spawn the
   server, register the zones over the wire, get a ``ping`` answered and
   (warm only) prime the coalescer's memory LRU with every request the
   timed phases will make.  The last server is the one measured.
2. *capacity*: a closed loop, ``CONNECTIONS`` connections with ``DEPTH``
   requests in flight each.  ``CONNECTIONS * DEPTH`` lies above the
   server's admission ``max_concurrent`` and below ``max_concurrent +
   max_queue``, so admission queues requests but never sheds them.
3. *open*: seeded Poisson arrivals at the workload's fixed rate, each
   request timed from its due time.  Phases 2 and 3 alternate in
   ``SLICES`` rounds.
4. outside the timed window: counters, correctness replay, shutdown.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import json
import math
import os
import random
import statistics
import sys
import time
from pathlib import Path

from load import Conn, Counter, closed_loop, open_loop, pipelined
from stats import percentile_block

HERE = Path(__file__).resolve().parent

ZONES = 256
N_LO, N_HI = 1_000, 100_000_000
#: Every 8th zone carries an EKF tracker; one request in 8 is a ``track``
#: against one of them.
TRACK_STRIDE = 8
#: Seeds per zone on serve_warm: 256 * 4 = 1024 records, well inside the
#: coalescer's 4096-entry memory LRU.
WARM_WINDOW = 4
#: serve_cold spreads auto-seeded requests over these zone indices (one
#: per decade band, the last on the scaled 2**17 grid).
COLD_ZONES = (0, 85, 170, 255)
#: Seeds per cold zone whose records both passes must reproduce exactly.
COLD_DIGEST_SEEDS = 32
CONNECTIONS = 2
DEPTH = 64
MAX_CONCURRENT = 64
MAX_QUEUE = 256
EXECUTOR_WORKERS = 2
SETUPS = 3
#: Offered open-loop rates (requests/s), fixed well below capacity
#: (about 8k/s warm and 350/s cold on a 2-core host).
RATES = {"serve_warm": 1000.0, "serve_cold": 100.0}
#: Share of the run spent in the closed-loop capacity phase; the rest is
#: the open loop, which needs rate * seconds >= 1000 for a valid p99.
CAPACITY_SHARE = 0.3
#: Capacity and open-loop phases alternate this many times.
SLICES = 4
LATENCY_LIMIT_MS = 50.0
#: The open-loop generator is out of step with its schedule, and the run
#: invalid, when its median lag exceeds LAG_P50_LIMIT_MS (it cannot keep
#: up with the offered rate) or its p99 lag exceeds the latency limit
#: (its own stalls alone would decide which requests meet the limit).
#: Shorter stalls are charged to the requests they delay, which are timed
#: from their due time; on a shared 2-vCPU host they reach tens of ms.
LAG_P50_LIMIT_MS = 1.0
#: A capacity phase whose last third completes less than this share of
#: its first third's rate is flagged as decaying.
DECAY_FLAG_RATIO = 0.9
REPLAY_PAIRS = 24
#: serve_warm's timed responses are fully decoded one in this many (every
#: one is still checked for ``"ok":true``); priming decodes them all.
WARM_DECODE_EVERY = 16

assert MAX_CONCURRENT < CONNECTIONS * DEPTH < MAX_CONCURRENT + MAX_QUEUE


# ----------------------------------------------------------------------
# Inputs, all derived from the benchmark seed
# ----------------------------------------------------------------------
def zone_configs(seed: int) -> dict[str, dict]:
    """256 analytic zones log-spaced over 10^3..10^8 (scaled grid above 10^7)."""
    rng = random.Random(seed)
    lo, hi = math.log10(N_LO), math.log10(N_HI)
    configs = {}
    for index in range(ZONES):
        n = int(round(10 ** (lo + index / (ZONES - 1) * (hi - lo))))
        config = {"n": n, "engine": "analytic", "pop_seed": rng.randrange(1 << 31)}
        if n > 10**7:
            config["w"] = 1 << 17
        if index % TRACK_STRIDE == TRACK_STRIDE - 1:
            config["tracker"] = "ekf"
        configs[f"z{index:04d}"] = config
    return configs


class Requests:
    """The workload's request stream (request bodies without ids)."""

    def __init__(self, workload: str, seed: int, configs: dict) -> None:
        self.workload = workload
        self.rng = random.Random(seed * 7919 + 17)
        self.names = sorted(configs)
        self.tracked = [z for z in self.names if configs[z].get("tracker")]
        self.cold = [self.names[i] for i in COLD_ZONES]
        self.offset = self.rng.randrange(1_000_000)
        self.count = 0

    def window(self) -> list[tuple[str, int]]:
        return [(z, self.offset + s) for z in self.names for s in range(WARM_WINDOW)]

    def next(self) -> str:
        self.count += 1
        rng = self.rng
        if self.workload == "serve_cold":
            zone = self.cold[rng.randrange(len(self.cold))]
            return f'{{"op":"estimate","zone":"{zone}"}}'
        seed = self.offset + rng.randrange(WARM_WINDOW)
        if self.count % TRACK_STRIDE == 0:
            zone = self.tracked[rng.randrange(len(self.tracked))]
            return f'{{"op":"track","zone":"{zone}","seed":{seed}}}'
        zone = self.names[rng.randrange(len(self.names))]
        return f'{{"op":"estimate","zone":"{zone}","seed":{seed}}}'

    def schedule(self, rate: float, seconds: float) -> list[tuple[float, str]]:
        """Poisson arrivals at ``rate`` over ``seconds``."""
        arrivals = random.Random(self.rng.randrange(1 << 62))
        out, t = [], 0.0
        while True:
            t += arrivals.expovariate(rate)
            if t >= seconds:
                return out
            out.append((t, self.next()))


# ----------------------------------------------------------------------
# /proc readers for the server process
# ----------------------------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK")


def _stat_cpu(path: str) -> float:
    with open(path) as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK  # utime + stime


def proc_cpu(pid: int) -> tuple[float, float]:
    """(process CPU seconds, main-thread CPU seconds) of ``pid``."""
    return _stat_cpu(f"/proc/{pid}/stat"), _stat_cpu(f"/proc/{pid}/task/{pid}/stat")


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def pin(pid: int) -> list[int] | None:
    """Put this process and the server's event-loop thread on different
    cores for the capacity phase.

    Left alone, the scheduler tends to stack two processes that wake each
    other on one core, and capacity then swings with where it put them.
    Only the loop thread is pinned (the server's main thread): executor
    and kernel threads keep the full mask.  Returns the two cores, or
    None on a single-core host.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    os.sched_setaffinity(pid, {cpus[1]})
    return cpus[:2]


# ----------------------------------------------------------------------
# One server lifetime
# ----------------------------------------------------------------------
RECORD_CHANGED = "record changed"


class Served:
    """Checks every response line and keeps the first record per (zone, seed).

    Every line is checked for ``"ok":true``; a full decode happens for
    every line while ``decode_every`` is 1 and for one line in
    ``decode_every`` otherwise.  A decoded record seen before must match
    the first one byte for byte; a repeated (zone, seed) that comes back
    different is counted under ``RECORD_CHANGED`` and fails the run.
    """

    def __init__(self, decode_every: int = 1) -> None:
        self.records: dict[tuple[str, int], dict] = {}
        self.failures: dict[str, int] = {}
        self.decode_every = decode_every
        self.seen = 0

    def _fail(self, code) -> bool:
        code = str(code)
        self.failures[code] = self.failures.get(code, 0) + 1
        return False

    def __call__(self, body, line: bytes, t) -> bool:
        self.seen += 1
        if b'"ok":true' not in line:
            try:
                return self._fail(json.loads(line).get("code", "bad"))
            except ValueError:
                return self._fail("undecodable")
        if self.seen % self.decode_every:
            return True
        response = json.loads(line)
        if response.get("ok") is not True or "record" not in response:
            return self._fail(response.get("code", "bad"))
        key = (response["zone"], response["seed"])
        first = self.records.setdefault(key, response["record"])
        return first == response["record"] or self._fail(RECORD_CHANGED)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


class ServerProc:
    """The server child process plus its control connections."""

    def __init__(self, env: dict, work: Path, trace: int, tag: str) -> None:
        self.env = env
        self.cache_dir = work / f"cache-{tag}"
        self.out = work / f"server-{tag}.json"
        self.stderr_path = work / f"server-{tag}.err"
        self.stderr = None
        self.trace = trace
        self.counter = Counter()
        self.proc = None
        self.conns: list[Conn] = []

    def _failure(self, what: str) -> RuntimeError:
        tail = ""
        if self.stderr_path.exists():
            tail = self.stderr_path.read_text()[-2000:]
        return RuntimeError(f"{what}; server stderr:\n{tail}")

    async def start(self) -> None:
        self.stderr = open(self.stderr_path, "wb")
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, str(HERE / "server_main.py"),
            "--cache-dir", str(self.cache_dir), "--trace", str(self.trace),
            "--out", str(self.out),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            stderr=self.stderr, env=self.env,
        )
        line = (await asyncio.wait_for(self.proc.stdout.readline(), 120)).decode().split()
        if len(line) != 3 or line[0] != "READY":
            raise self._failure(f"server did not start: {line}")
        self.port, self.native_threads = int(line[1]), int(line[2])
        self.conns = [
            await Conn.open("127.0.0.1", self.port, self.counter)
            for _ in range(CONNECTIONS)
        ]

    async def phase(self, name: str) -> None:
        self.proc.stdin.write(f"phase {name}\n".encode())
        await self.proc.stdin.drain()
        ack = (await asyncio.wait_for(self.proc.stdout.readline(), 30)).decode().strip()
        if ack != f"PHASE {name}":
            raise RuntimeError(f"bad phase ack {ack!r}")

    async def call(self, op: str) -> dict:
        response = await self.conns[0].call({"op": op})
        if response.get("ok") is not True:
            raise RuntimeError(f"{op} failed: {response}")
        return response

    async def stop(self) -> dict:
        """Shut down, wait for the process, return its summary file."""
        for conn in self.conns[1:]:
            await conn.close()
        try:
            if self.conns and not self.conns[0].closed:
                await self.conns[0].call({"op": "shutdown"}, timeout=30)
        finally:
            for conn in self.conns:
                await conn.close()
            try:
                await asyncio.wait_for(self.proc.wait(), 60)
            except asyncio.TimeoutError:
                self.proc.kill()
                await self.proc.wait()
        self.stderr.close()
        if self.proc.returncode != 0:
            raise self._failure(f"server exited with {self.proc.returncode}")
        return json.loads(self.out.read_text())

    async def kill(self) -> None:
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()
        if self.stderr is not None:
            self.stderr.close()


async def _setup(env, work, trace, tag, configs, requests, served) -> tuple[ServerProc, float]:
    started = time.perf_counter()
    server = ServerProc(env, work, trace, tag)
    try:
        await server.start()
        puts = [
            json.dumps({"op": "zone.put", "zone": z, "config": c}, separators=(",", ":"))
            for z, c in configs.items()
        ]
        refused = []
        lost = await pipelined(
            server.conns, puts, DEPTH,
            lambda b, line, t: b'"ok":true' in line or refused.append(line),
        )
        if lost or refused:
            raise RuntimeError(f"zone registration failed: {refused[:3]}, lost {lost}")
        await server.call("ping")
        if requests.workload == "serve_warm":
            prime = [
                f'{{"op":"estimate","zone":"{z}","seed":{s}}}' for z, s in requests.window()
            ]
            lost = await pipelined(server.conns, prime, DEPTH, served)
            if lost or served.failures:
                raise RuntimeError(f"priming failed: {served.failures}, lost {lost}")
    except BaseException:
        await server.kill()
        raise
    return server, time.perf_counter() - started


async def _capacity_slice(server: ServerProc, requests: Requests, served: Served,
                          seconds: float) -> dict:
    pid = server.proc.pid
    saved = os.sched_getaffinity(0), os.sched_getaffinity(pid)
    await server.phase("capacity")
    pinned = pin(pid)
    failed_before = served.failed
    try:
        cpu_a = proc_cpu(pid)
        client_a = time.process_time()
        cap = await closed_loop(server.conns, requests.next, DEPTH, seconds, served)
        cap["generator_cpu_s"] = time.process_time() - client_a
        cpu_b = proc_cpu(pid)
    finally:
        os.sched_setaffinity(0, saved[0])
        os.sched_setaffinity(pid, saved[1])
    # Every answer of the slice, drained ones included: admission is sized
    # never to shed here, so any refusal or error is a fault.
    cap["failed_responses"] = served.failed - failed_before
    cap["server_cpu_s"] = cpu_b[0] - cpu_a[0]
    cap["loop_cpu_s"] = cpu_b[1] - cpu_a[1]
    cap["pinned_cores"] = pinned
    return cap


async def _measure(server: ServerProc, requests: Requests, served: Served,
                   workload: str, seconds: float) -> dict:
    """The timed window on a set-up server.

    Capacity and open-loop phases alternate in ``SLICES`` rounds, so each
    is sampled across the whole window rather than in one stretch of it:
    on a shared host, speed drifts over seconds.
    """
    cap_seconds = CAPACITY_SHARE * seconds
    rate = RATES[workload]
    open_seconds = seconds - cap_seconds
    schedule = requests.schedule(rate, open_seconds)
    cut = [bisect.bisect_left(schedule, (open_seconds * i / SLICES,)) for i in range(SLICES + 1)]
    if workload == "serve_warm":
        served.decode_every = WARM_DECODE_EVERY
    health_a = (await server.call("health"))
    metrics_a = (await server.call("metrics"))["metrics"]
    sent_a = server.counter.sent
    pid = server.proc.pid

    caps, opens = [], []
    for index in range(SLICES):
        caps.append(await _capacity_slice(server, requests, served, cap_seconds / SLICES))
        await server.phase("open")
        base = open_seconds * index / SLICES
        part = [(t - base, body) for t, body in schedule[cut[index]:cut[index + 1]]]
        opens.append(await open_loop(server.conns, part, served))
    await server.phase("idle")
    sent_window = server.counter.sent - sent_a

    rss = peak_rss_mb(pid)
    health_b = await server.call("health")
    metrics_b = (await server.call("metrics"))["metrics"]
    sent_b = server.counter.sent

    latency_ms = [1e3 * v for ol in opens for v in ol["latency"]]
    lags_ms = [1e3 * v for ol in opens for v in ol["lag"]]
    lat = percentile_block(latency_ms, qs=(0.50, 0.90, 0.99))
    coal_a, coal_b = health_a["coalescer"], health_b["coalescer"]
    completed = sum(c["completed"] for c in caps)
    sent_cap = sum(c["sent"] for c in caps)
    slice_rps = [c["completed"] / (cap_seconds / SLICES) for c in caps]
    third = max(1, SLICES // 3)
    first, last = statistics.mean(slice_rps[:third]), statistics.mean(slice_rps[-third:])
    lost = sum(c["lost"] for c in caps) + sum(ol["lost"] for ol in opens)
    return {
        "capacity": {
            "seconds": cap_seconds,
            "slices": SLICES,
            "completed": completed,
            "sent": sent_cap,
            "failed": sum(c["failed_responses"] for c in caps),
            "lost": sum(c["lost"] for c in caps),
            "rps": completed / cap_seconds,
            "slice_rps": slice_rps,
            "slice_cpu_us_per_req": [
                1e6 * c["server_cpu_s"] / max(1, c["completed"]) for c in caps
            ],
            "per_second": [c["per_second"] for c in caps],
            "last_over_first_third": last / first if first else 0.0,
            "decaying": bool(first and last < DECAY_FLAG_RATIO * first),
            "generator_cpu_s": sum(c["generator_cpu_s"] for c in caps),
            "server_cpu_s": sum(c["server_cpu_s"] for c in caps),
            "loop_cpu_s": sum(c["loop_cpu_s"] for c in caps),
        },
        "open": {
            "rate": rate,
            "seconds": open_seconds,
            "scheduled": len(schedule),
            "latency_ms": lat,
            "over_limit": sum(1 for v in latency_ms if v > LATENCY_LIMIT_MS),
            "lag_ms": percentile_block(lags_ms),
            "lag_max_ms": max(lags_ms, default=0.0),
            "generator_cpu_s": sum(ol["generator_cpu_s"] for ol in opens),
        },
        "pinned_cores": caps[0]["pinned_cores"],
        "attempted": sent_cap + len(schedule),
        "lost": lost,
        "peak_rss_mb": rss,
        "coalescer": {
            "memory_hits": coal_b["memory_hits"] - coal_a["memory_hits"],
            "engine_calls": coal_b["engine_calls"] - coal_a["engine_calls"],
            "batches": coal_b["batches"] - coal_a["batches"],
            "estimates": sent_cap + len(schedule),
        },
        "admission": health_b["admission"],
        "program_counters": _counter_delta(metrics_a, metrics_b),
        "sent": {"window": sent_window, "a_to_b": sent_b - sent_a},
    }


def _counter_delta(a: dict, b: dict) -> dict:
    def hist_count(snap, name):
        return snap["histograms"].get(name, {}).get("count", 0)

    out = {
        name: b["counters"].get(name, 0) - a["counters"].get(name, 0)
        for name in ("service.requests", "service.engine.calls", "kernel.native.calls",
                     "service.cache.memory_hit")
    }
    for hist in b["histograms"]:
        if hist.startswith("kernel.native.") and hist.endswith(".seconds"):
            out[hist + ".count"] = hist_count(b, hist) - hist_count(a, hist)
    return out


async def _one_pass(env, work, workload, seed, seconds, trace, setups) -> dict:
    configs = zone_configs(seed)
    setup_times = []
    for index in range(setups):
        requests = Requests(workload, seed, configs)
        served = Served()
        server, took = await _setup(
            env, work, trace, f"t{trace}-{index}", configs, requests, served
        )
        setup_times.append(took)
        try:
            if index == setups - 1:
                measured = await _measure(server, requests, served, workload, seconds)
        except BaseException:
            await server.kill()
            raise
        summary = await server.stop()
    measured.update(
        setup_s=setup_times,
        native_threads=server.native_threads,
        server_summary=summary,
        served=served,
        configs=configs,
        requests=requests,
    )
    return measured


def _digest_keys(workload: str, requests: Requests) -> list[tuple[str, int]]:
    if workload == "serve_warm":
        return sorted(requests.window())
    return [(z, s) for z in requests.cold for s in range(COLD_DIGEST_SEEDS)]


def _digest(measured: dict, workload: str) -> tuple[str | None, list]:
    records = measured["served"].records
    keys = _digest_keys(workload, measured["requests"])
    missing = [k for k in keys if k not in records]
    if missing:
        return None, missing
    blob = json.dumps([[z, s, records[(z, s)]] for z, s in keys], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest(), []


def _replay(measured: dict, workload: str, seed: int) -> dict:
    """Recompute a sample of served records directly, outside the server."""
    from repro.experiments.sweep import execute_point_inline
    from repro.service.zones import ZoneConfig

    records = measured["served"].records
    keys = [k for k in _digest_keys(workload, measured["requests"]) if k in records]
    sample = random.Random(seed).sample(keys, min(REPLAY_PAIRS, len(keys)))
    drift, mismatched = 0.0, 0
    for zone, s in sample:
        config = ZoneConfig.from_dict(measured["configs"][zone])
        payload, _ = execute_point_inline(config.point(base_seed=s, trials=1), cache=None)
        direct = payload["records"][0]
        drift = max(drift, abs(direct["n_hat"] - records[(zone, s)]["n_hat"]))
        mismatched += direct != records[(zone, s)]
    return {"pairs": len(sample), "max_abs_dn_hat": drift, "records_differing": mismatched}


def _faults(m: dict) -> dict:
    """Failures that make a run incorrect, not just slower: a (zone, seed)
    answered with two different records, and any capacity-phase request
    that was refused, errored or never answered."""
    return {
        "record_changed": m["served"].failures.get(RECORD_CHANGED, 0),
        "capacity_failed": m["capacity"]["failed"],
        "capacity_lost": m["capacity"]["lost"],
    }


def _end_to_end(m: dict) -> dict:
    cap = m["capacity"]
    lat = m["open"]["latency_ms"]
    return {
        "setup_s": statistics.median(m["setup_s"]),
        "ops_per_s": statistics.median(cap["slice_rps"]),
        "cpu_us_per_op": statistics.median(cap["slice_cpu_us_per_req"]),
        "peak_rss_mb": m["peak_rss_mb"],
        "p50_ms": lat["p50"],
        "p99_ms": lat["p99"],
    }


def _validity(m: dict, workload: str) -> dict:
    lat, lag = m["open"]["latency_ms"], m["open"]["lag_ms"]
    coal = m["coalescer"]
    problems = []
    if not (lat["p50_valid"] and lat["p99_valid"]):
        problems.append("fewer than 10 open-loop samples beyond p99")
    if lag["p50"] is None or lag["p50"] > LAG_P50_LIMIT_MS:
        problems.append(f"generator lag p50 {lag['p50']} ms > {LAG_P50_LIMIT_MS} ms")
    if lag["p99"] is None or lag["p99"] > LATENCY_LIMIT_MS:
        problems.append(f"generator lag p99 {lag['p99']} ms > {LATENCY_LIMIT_MS} ms")
    if workload == "serve_warm" and coal["memory_hits"] != coal["estimates"]:
        problems.append(
            f"memory-LRU hit ratio below 1 ({coal['memory_hits']}/{coal['estimates']})"
        )
    return {"valid": not problems, "problems": problems,
            "capacity_decaying": m["capacity"]["decaying"]}


def _layer(m: dict) -> dict:
    summary = m["server_summary"]
    layer = dict(summary["layer"])
    cap, coal = m["capacity"], m["coalescer"]
    completed = max(1, cap["completed"])
    misses = coal["estimates"] - coal["memory_hits"]
    layer.update({
        "coalescer.memory_hit_ratio": coal["memory_hits"] / max(1, coal["estimates"]),
        "coalescer.reqs_per_engine_call": misses / coal["engine_calls"] if coal["engine_calls"] else 0.0,
        "server.loop_cpu_us_per_req": 1e6 * cap["loop_cpu_s"] / completed,
        # Everything but the event-loop thread: executor threads, and kernel
        # threads that have exited (their time stays in the process total).
        # Both readings tick at 1/CLK_TCK, so clamp the difference at 0.
        "server.executor_cpu_us_per_req": (
            1e6 * max(0.0, cap["server_cpu_s"] - cap["loop_cpu_s"]) / completed
        ),
        "obs.writes_per_req": summary["counts"]["obs_writes"] / max(1, m["attempted"]),
        "loadgen.lag_p99_ms": m["open"]["lag_ms"]["p99"] or 0.0,
    })
    for name in layer:
        if name.startswith("kernel.") and not name.endswith(".threads"):
            layer[name] /= max(1, m["attempted"])
    return layer


def _cross_check(m: dict) -> dict:
    """External call counts against the program's own counters (exact)."""
    counts = m["server_summary"]["counts"]
    program = m["program_counters"]
    pairs = {
        "execute_point_inline calls = service.engine.calls": (
            counts["inline_calls"], program["service.engine.calls"]),
        "kernel calls = kernel.native.calls": (
            sum(counts["kernel_calls"].values()), program["kernel.native.calls"]),
        "memory hits = coalescer memory_hits": (
            counts["estimate_hits"], m["coalescer"]["memory_hits"]),
        "memory hits = service.cache.memory_hit": (
            counts["estimate_hits"], program["service.cache.memory_hit"]),
        "request lines in window = parse_request calls": (
            m["sent"]["window"], counts["parse_calls"]),
        "request lines = service.requests": (
            m["sent"]["a_to_b"], program["service.requests"]),
    }
    for kernel, calls in counts["kernel_calls"].items():
        pairs[f"{kernel} calls = kernel.native.{kernel}.seconds count"] = (
            calls, program.get(f"kernel.native.{kernel}.seconds.count", 0))
    mismatches = {k: v for k, v in pairs.items() if v[0] != v[1]}
    return {"pairs": {k: list(v) for k, v in pairs.items()}, "mismatches": sorted(mismatches)}


def _details(m: dict) -> dict:
    keep = ("capacity", "open", "coalescer", "admission", "setup_s", "native_threads",
            "pinned_cores", "attempted", "lost", "peak_rss_mb")
    return {**{k: m[k] for k in keep}, "failures": m["served"].failures}


def run(workload: str, seed: int, seconds: float, trace: int, env: dict, work: Path) -> dict:
    """Run one serving workload; returns the pieces ``run.py`` prints."""
    base = asyncio.run(_one_pass(env, work, workload, seed, seconds, 0, SETUPS))
    e2e = _end_to_end(base)
    validity = _validity(base, workload)
    digest, missing = _digest(base, workload)
    correctness = {"replay": _replay(base, workload, seed), "digest": digest,
                   "digest_missing": len(missing), "faults": _faults(base)}
    ok = (digest is not None and correctness["replay"]["max_abs_dn_hat"] == 0.0
          and correctness["replay"]["records_differing"] == 0
          and not any(correctness["faults"].values()))
    attempted = base["attempted"]
    failed = base["served"].failed + base["lost"]
    result = {
        "e2e": e2e, "validity": validity, "correctness": correctness,
        "details": {"untraced": _details(base)},
        "attempted": attempted, "failed": failed,
        "provenance": {
            "offered_rate_per_s": RATES[workload],
            "connections": CONNECTIONS, "pipeline_depth": DEPTH,
            "max_concurrent": MAX_CONCURRENT, "max_queue": MAX_QUEUE,
            "executor_workers": EXECUTOR_WORKERS, "setups": SETUPS,
            "server_native_threads": base["native_threads"],
            "zones": ZONES, "warm_window": WARM_WINDOW,
            "latency_limit_ms": LATENCY_LIMIT_MS,
            "lag_p50_limit_ms": LAG_P50_LIMIT_MS,
        },
    }
    if trace:
        traced = asyncio.run(_one_pass(env, work, workload, seed, seconds, 1, 1))
        traced_digest, _ = _digest(traced, workload)
        correctness["traced_digest"] = traced_digest
        correctness["traced_faults"] = _faults(traced)
        ok = ok and traced_digest == digest and not any(correctness["traced_faults"].values())
        t_e2e = _end_to_end(traced)
        layer = _layer(traced)
        for name, value in e2e.items():
            other = t_e2e[name]
            layer[f"trace.overhead_pct.{name}"] = (
                100.0 * (other - value) / value if value and other is not None else 0.0
            )
        result["layer"] = layer
        result["layer_samples"] = traced["server_summary"]["samples"]
        result["cross_check"] = _cross_check(traced)
        result["details"]["traced"] = _details(traced)
        result["details"]["traced_e2e"] = t_e2e
        ok = ok and not result["cross_check"]["mismatches"]
        validity["traced_valid"] = _validity(traced, workload)
    result["correct"] = ok
    return result
