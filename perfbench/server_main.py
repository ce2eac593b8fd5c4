"""Estimation-server process for the serving workloads.

Started by ``serve.py``; not meant to be run by hand.  Prints
``READY <port> <native_threads>`` once listening, then serves until a
``shutdown`` request.  Lines on stdin of the form ``phase <name>`` move
the span recorder to a new phase and are acknowledged with
``PHASE <name>`` on stdout, so the caller knows which requests fall in
which window.  With ``--trace 1`` the layers are wrapped (``spans.py``)
and, on exit, the per-layer summary of the timed phases is written to
``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from serve import EXECUTOR_WORKERS, MAX_CONCURRENT, MAX_QUEUE  # noqa: E402
from spans import Recorder, cache_metrics, install, kernel_metrics  # noqa: E402
from stats import percentile_block, self_time  # noqa: E402

TIMED_PHASES = ("capacity", "open")


def _stdin_phases(rec: Recorder | None) -> None:
    for line in sys.stdin:
        parts = line.split()
        if len(parts) == 2 and parts[0] == "phase":
            if rec is not None:
                rec.phase = parts[1]
            print(f"PHASE {parts[1]}", flush=True)


def _group_of(canonical: str) -> str:
    """Coalescing identity of a point spec: everything except the seeds."""
    spec = json.loads(canonical)
    spec.pop("base_seed")
    spec.pop("trials")
    return json.dumps(spec, sort_keys=True)


def summarise(rec: Recorder) -> dict:
    """Per-layer figures over the timed phases, plus raw counts for the
    counter cross-check."""
    spans = rec.select(TIMED_PHASES)
    leaves = rec.leaf_totals(TIMED_PHASES)

    def mean_us(name):
        calls, seconds = leaves.get(name, (0, 0.0))
        return 1e6 * seconds / calls if calls else 0.0

    # Which estimates reached the engine: an estimate is served by the
    # first inline execution of its group whose seed range holds its seed
    # and which ran inside the estimate's own interval.  The rest were
    # memory-LRU hits.
    inline = [s for s in spans if s[1] == "sweep.inline"]
    by_group: dict = {}
    for _sid, _n, _p, _par, t0, t1, canonical in inline:
        spec = json.loads(canonical)
        by_group.setdefault(_group_of(canonical), []).append(
            (t0, t1, spec["base_seed"], spec["trials"])
        )
    for runs in by_group.values():
        runs.sort()
    group_cache: dict = {}
    estimates = [s for s in spans if s[1] == "coalescer.estimate"]
    hits = 0
    waits = []
    for _sid, _n, phase, _par, t0, t1, (config, seed) in estimates:
        key = group_cache.get(id(config))
        if key is None:
            key = group_cache[id(config)] = _group_of(
                config.point(base_seed=0, trials=1).canonical
            )
        served = None
        for r0, r1, base, trials in by_group.get(key, ()):
            if r0 >= t0 and r1 <= t1 and base <= seed < base + trials:
                served = (r0, r1)
                break
        if served is None:
            hits += 1
        else:
            waits.append((self_time(t0, t1, [served]), phase))
    # Latency percentiles come from the open-loop phase only: in the
    # closed loop every request queues behind the full pipeline depth.
    est_block = percentile_block([s[5] - s[4] for s in estimates if s[2] == "open"])
    wait_block = percentile_block([w for w, phase in waits if phase == "open"], qs=(0.50,))
    acquire = [s for s in spans if s[1] == "admission.acquire"]
    acq_block = percentile_block([s[5] - s[4] for s in acquire if s[2] == "open"])
    analytic = [s for s in spans if s[1] == "engine.analytic"]
    writes = leaves.get("obs.inc", (0, 0.0))[0] + leaves.get("obs.observe", (0, 0.0))[0]
    write_s = leaves.get("obs.inc", (0, 0.0))[1] + leaves.get("obs.observe", (0, 0.0))[1]
    layer = {
        "protocol.parse_us": mean_us("protocol.parse"),
        "protocol.encode_us": mean_us("protocol.encode"),
        "admission.wait_p50_us": 1e6 * (acq_block["p50"] or 0.0),
        "admission.wait_p99_us": 1e6 * (acq_block["p99"] or 0.0),
        "zones.group_key_us": mean_us("zones.group_key"),
        "zones.track_us": mean_us("zones.track"),
        "coalescer.estimate_p50_us": 1e6 * (est_block["p50"] or 0.0),
        "coalescer.estimate_p99_us": 1e6 * (est_block["p99"] or 0.0),
        "coalescer.wait_us": 1e6 * (wait_block["p50"] or 0.0),
        "sweep.inline_ms": (
            1e3 * sum(s[5] - s[4] for s in inline) / len(inline) if inline else 0.0
        ),
        "engine.analytic_ms": (
            1e3 * sum(s[5] - s[4] for s in analytic) / len(analytic) if analytic else 0.0
        ),
        "engine.analytic_trials_per_call": (
            sum(s[6] for s in analytic) / len(analytic) if analytic else 0.0
        ),
        "obs.write_us": 1e6 * write_s / writes if writes else 0.0,
        "obs.evaluate_ms": mean_us("obs.evaluate") / 1e3,
    }
    layer.update(cache_metrics(leaves))
    layer.update(kernel_metrics(spans))
    return {
        "layer": layer,
        "samples": {
            "admission.wait": acq_block["samples"],
            "coalescer.estimate": est_block["samples"],
            "coalescer.wait": wait_block["samples"],
        },
        "counts": {
            "estimates": len(estimates),
            "estimate_hits": hits,
            "inline_calls": len(inline),
            "parse_calls": leaves.get("protocol.parse", (0, 0.0))[0],
            "obs_writes": writes,
            "kernel_calls": {
                k.split(".")[1]: v for k, v in layer.items()
                if k.startswith("kernel.") and k.endswith(".calls")
            },
        },
    }


async def _serve(args, rec: Recorder | None) -> None:
    from repro.experiments.sweep import TrialCache
    from repro.rfid import _native
    from repro.service.server import EstimationServer

    server = EstimationServer(
        zones={},
        cache=TrialCache(args.cache_dir),
        executor_workers=EXECUTOR_WORKERS,
        max_concurrent=MAX_CONCURRENT,
        max_queue=MAX_QUEUE,
    )
    await server.start()
    try:
        threads = _native.native_thread_count()
        print(f"READY {server.bound_port} {threads}", flush=True)
        await server.serve_until_shutdown()
    finally:
        await server.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    rec = None
    if args.trace:
        rec = Recorder()
        install(rec)
    threading.Thread(target=_stdin_phases, args=(rec,), daemon=True).start()
    asyncio.run(_serve(args, rec))
    out = {"pid": os.getpid()}
    if rec is not None:
        out.update(summarise(rec))
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
