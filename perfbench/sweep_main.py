"""Sweep process for the ``sweep_cold`` workload.

Started by ``sweep.py``; not meant to be run by hand.  Imports the
program, loads the native kernels and prints ``READY <native_threads>``
(the caller times spawn to ``READY`` as set-up).  Then it reads one line
on stdin: ``exit`` ends the process, ``run`` runs the timed sweep, the
correctness checks, and writes a JSON report to ``--out``.

The timed sweep repeats one fixed grid until ``--seconds`` have passed
(and enough trials were timed for a p99).  Every pass starts cold: a
fresh cache directory and an emptied population cache.  Each grid point
goes through its own ``run_sweep(max_workers=1)`` call so its latency can
be timed from outside; all trials of a lockstep batch complete together,
so a trial's latency is the latency of its point.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from spans import (  # noqa: E402
    Recorder,
    cache_metrics,
    children_index,
    install,
    kernel_metrics,
    total_self,
)
from stats import min_samples_for  # noqa: E402

#: Trials per point: the cheap n = 10^5 points carry most trials, so no
#: single point kind takes most of a pass (each is roughly a quarter to
#: a third of it on a 2-core host).
CHEAP_TRIALS = 60
BFCE_1E6_TRIALS = 2
SKETCH_TRIALS = 1
SKETCH_P, SKETCH_READERS, SKETCH_OVERLAP = 12, 16, 0.2
#: Trials checked against the serial engine, per checked point.
SERIAL_CHECK_TRIALS = 3
MIN_TRIALS = min_samples_for(0.99)


def grid(seed: int, rep: int):
    """The points of one pass; seeds differ per pass, shapes do not."""
    from repro.experiments.sweep import SweepPoint

    base = seed * 10_000 + rep * 100
    pop_seed = seed % (1 << 31)
    common = {"distribution": "T1", "pop_seed": pop_seed}
    points = [
        SweepPoint.bfce_trials(n=10**5, trials=CHEAP_TRIALS, base_seed=base,
                               engine="batched", **common),
        SweepPoint.bfce_trials(n=10**6, trials=BFCE_1E6_TRIALS, base_seed=base + 1,
                               engine="batched", **common),
    ]
    for offset, estimator in enumerate(("LOF", "ZOE", "SRC")):
        points.append(SweepPoint.baseline_trials(
            estimator, n=10**5, trials=CHEAP_TRIALS, base_seed=base + 2 + offset,
            engine="batched", **common))
    points.append(SweepPoint.sketch_trials(
        n=10**6, p=SKETCH_P, n_readers=SKETCH_READERS, overlap=SKETCH_OVERLAP,
        trials=SKETCH_TRIALS, base_seed=base + 5, **common))
    return points


def timed_sweep(seed: int, seconds: float, work: Path) -> dict:
    from repro.experiments.sweep import TrialCache, run_sweep
    from repro.experiments.workloads import population_cache_clear

    latencies: list[float] = []
    passes: list[tuple[int, float, float]] = []  # (trials done, wall s, cpu s)
    failed_points = failed_trials = trials = points_run = 0
    first_pass = None
    reps = 0
    cpu0 = time.process_time()
    start = time.perf_counter()
    while reps == 0 or time.perf_counter() - start < seconds or len(latencies) < MIN_TRIALS:
        pass_start, pass_cpu, pass_done = time.perf_counter(), time.process_time(), 0
        cache = TrialCache(work / f"sweep-cache-{reps}")
        population_cache_clear()
        payloads = []
        for point in grid(seed, reps):
            expected = point.spec["trials"]
            t0 = time.perf_counter()
            try:
                payload = run_sweep([point], max_workers=1, cache=cache)[0]
            except Exception as exc:  # noqa: BLE001 — a failed point is counted, not fatal
                payload = {"error": f"{type(exc).__name__}: {exc}"}
            dt = time.perf_counter() - t0
            points_run += 1
            trials += expected
            if len(payload.get("records", ())) != expected:
                failed_points += 1
                failed_trials += expected
            else:
                latencies.extend([dt] * expected)
                pass_done += expected
            payloads.append(payload)
        passes.append((pass_done, time.perf_counter() - pass_start,
                       time.process_time() - pass_cpu))
        if first_pass is None:
            first_pass = payloads
        reps += 1
    wall = time.perf_counter() - start
    return {
        "reps": reps,
        "points": points_run,
        "trials": trials,
        "failed_points": failed_points,
        "failed_trials": failed_trials,
        "wall_s": wall,
        "cpu_s": time.process_time() - cpu0,
        "latencies": latencies,
        "passes": passes,
        "first_pass": first_pass,
    }


def check(seed: int, first_pass: list) -> dict:
    """Bit-identity of the first pass against the serial engine and the
    NumPy HLL reference (cheap subsets, outside the timed window)."""
    import numpy as np

    from repro.experiments.sweep import SweepPoint, run_sweep
    from repro.experiments.workloads import population
    from repro.rfid.hashing import mix64
    from repro.rfid.multireader import CoverageMap
    from repro.sketch.hll import hll_estimate, hll_registers_numpy

    fields = ("n_true", "n_hat", "error", "seconds", "seed")
    mismatches = []
    checked = 0
    for point, payload in zip(grid(seed, 0), first_pass):
        spec = point.spec
        if len(payload.get("records", ())) != spec["trials"]:
            mismatches.append(f"{spec['kind']} n={spec['n']}: "
                              f"{len(payload.get('records', ()))} of {spec['trials']} records")
            continue
        if spec["kind"] not in ("bfce_trials", "baseline_trials") or spec["n"] != 10**5:
            continue
        spec = dict(spec, trials=SERIAL_CHECK_TRIALS, engine="serial")
        serial = run_sweep([SweepPoint.from_spec(spec)], max_workers=1, cache=None)[0]
        for fast, slow in zip(payload.get("records", ()), serial["records"]):
            checked += 1
            if any(fast[f] != slow[f] for f in fields):
                mismatches.append(f"{spec['estimator']} seed {slow['seed']}")
    if mismatches:
        return {"serial_trials_checked": checked, "sketch_checked": 0,
                "mismatches": mismatches}
    sketch_spec = grid(seed, 0)[-1].spec
    record = first_pass[-1]["records"][0]
    trial_seed = sketch_spec["base_seed"]
    pop = population("T1", sketch_spec["n"], seed=sketch_spec["pop_seed"], copy=False)
    # The sketch executor draws reader coverage with seed trial_seed + 0x5E7C.
    coverage = CoverageMap.random_overlap(
        pop.tag_ids, sketch_spec["n_readers"], overlap=sketch_spec["overlap"],
        seed=trial_seed + 0x5E7C,
    )
    union_ids = coverage.tag_ids[coverage.memberships.any(axis=0)]
    registers = hll_registers_numpy(
        union_ids, int(mix64(np.uint64(trial_seed))), sketch_spec["p"]
    )
    sketch_ok = hll_estimate(registers) == record["n_hat"]
    if not sketch_ok:
        mismatches.append("sketch union != hll_registers_numpy")
    return {"serial_trials_checked": checked, "sketch_checked": 1,
            "mismatches": mismatches}


def layer_metrics(rec: Recorder, reps: int) -> dict:
    """Per-layer figures over the timed phase, per grid pass."""
    spans = rec.select(("timed",))
    index = children_index(spans)
    per = 1.0 / max(1, reps)

    def total(name, keep=lambda s: True):
        return sum(s[5] - s[4] for s in spans if s[1] == name and keep(s))

    batched_wall = total("engine.batched")
    batched_self = total_self(spans, "engine.batched", index)
    layer = {
        "sweep.run_self_s": per * total_self(spans, "sweep.run", index),
        "engine.batched_self_s": per * batched_self,
        "engine.kernel_share": (
            (batched_wall - batched_self) / batched_wall if batched_wall else 0.0
        ),
        "baselines.lof_self_s": per * total_self(spans, "baselines.lof", index),
        "baselines.zoe_self_s": per * total_self(spans, "baselines.zoe", index),
        "baselines.src_self_s": per * total_self(spans, "baselines.src", index),
        "workloads.population_s": per * total("workloads.population", lambda s: s[6]),
        "multireader.coverage_s": per * total("multireader.coverage"),
        "multireader.union_self_s": per * total_self(spans, "multireader.union", index),
        "sketch.registers_s": per * total("sketch.registers"),
    }
    layer.update(cache_metrics(rec.leaf_totals(("timed",))))
    for name, value in kernel_metrics(spans).items():
        layer[name] = value if name.endswith(".threads") else per * value
    return layer


def cross_check(rec: Recorder) -> dict:
    """Wrapped call counts (whole traced lifetime) against the registry."""
    from repro.obs import metrics

    snap = metrics.snapshot()
    spans = rec.spans
    leaves = rec.leaf_totals()
    counters, hists = snap["counters"], snap["histograms"]
    pairs = {}
    total = 0
    for name, calls in kernel_metrics(spans).items():
        if name.endswith(".calls"):
            kernel = name.split(".")[1]
            total += calls
            pairs[f"{kernel} calls = kernel.native.{kernel}.seconds count"] = (
                calls, hists.get(f"kernel.native.{kernel}.seconds", {}).get("count", 0))
    pairs["kernel calls = kernel.native.calls"] = (total, counters.get("kernel.native.calls", 0))
    for leaf, counter in (("sweep.cache_store", "sweep.cache.store"),
                          ("sweep.cache_load_hit", "sweep.cache.hit"),
                          ("sweep.cache_load_miss", "sweep.cache.miss")):
        pairs[f"{leaf} calls = {counter}"] = (
            leaves.get(leaf, (0, 0.0))[0], counters.get(counter, 0))
    mismatches = sorted(k for k, (a, b) in pairs.items() if a != b)
    return {"pairs": {k: list(v) for k, v in pairs.items()}, "mismatches": mismatches}


def peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import repro.baselines.batch  # noqa: F401
    import repro.experiments.batch  # noqa: F401
    import repro.experiments.sweep  # noqa: F401
    import repro.rfid.multireader  # noqa: F401
    import repro.sketch.hll  # noqa: F401
    from repro.rfid import _native

    native = _native.get_lib() is not None
    print(f"READY {_native.native_thread_count() if native else 0}", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0
    rec = None
    if args.trace:
        rec = Recorder()
        install(rec)
        rec.phase = "timed"
    result = timed_sweep(args.seed, args.seconds, Path(args.work))
    rss = peak_rss_mb()
    if rec is not None:
        rec.phase = "check"
    first_pass = result.pop("first_pass")
    result["correctness"] = check(args.seed, first_pass)
    result["digest"] = hashlib.sha256(
        json.dumps(first_pass, sort_keys=True).encode()
    ).hexdigest()
    result["peak_rss_mb"] = rss
    result["native"] = native
    result["pid"] = os.getpid()
    if rec is not None:
        result["layer"] = layer_metrics(rec, result["reps"])
        result["cross_check"] = cross_check(rec)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
