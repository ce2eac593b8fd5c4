"""Perf-regression harness: serial vs. batched trial engines.

Unlike the figure benches (which regenerate paper results), this harness
tracks the *simulator's own* throughput trajectory.  It times the serial
engine and the batched engine (pinned to one kernel thread, then at the
host's thread default) on an identical workload — by default n = 10⁵ tags,
T = 50 Monte-Carlo trials, perfect channel — and writes ``BENCH_engine.json``
at the repo root with trials/sec per engine, the speedup over serial, and
the maximum |Δn̂| of each engine versus the serial reference (which must be
exactly 0.0: batching and kernel threading claim bit-equivalence, not
statistical agreement).

Run as a script or module::

    PYTHONPATH=src python benchmarks/bench_perf_engine.py
    PYTHONPATH=src python benchmarks/bench_perf_engine.py --smoke
    PYTHONPATH=src python -m bench_perf_engine          # from benchmarks/

``--smoke`` shrinks the workload (n = 5000, T = 6, best-of-1) so
CI can exercise the full harness — including the drift gate — in seconds.

Checks (recorded in the artifact's ``checks`` list, see ``_harness.py``):
zero drift at every scale; at full scale the batched speedup over serial
(``engine_batched_speedup_min``) and, on a host with ≥ 2 visible cores,
the threaded speedup over one kernel thread (``engine_threaded_speedup_min``).

Knobs (environment variables, overridden by ``--smoke``):

* ``REPRO_BENCH_N``        population size          (default 100000)
* ``REPRO_BENCH_TRIALS``   Monte-Carlo trials       (default 50)
* ``REPRO_BENCH_REPEATS``  timing repetitions, best-of (default 3)
* ``REPRO_BENCH_OUT``      output path              (default <repo>/BENCH_engine.json)

The harness is also importable: ``run_engine_bench()`` returns the result
dict without touching the filesystem, which is how the tier-2 smoke test
exercises it at a reduced scale.
"""

from __future__ import annotations

import _harness  # first: puts src/ on sys.path
from _harness import Check

from repro.experiments.runner import run_bfce_trials
from repro.obs.host import host_block
from repro.rfid.ids import uniform_ids
from repro.rfid.tags import TagPopulation

BASE_SEED = 2015  # ICPP'15 — fixed so every engine replays the same seeds


def run_engine_bench(
    *,
    n: int = 100_000,
    trials: int = 50,
    repeats: int = 3,
) -> dict:
    """Time every engine row on one workload and return the report dict."""
    population = TagPopulation(uniform_ids(n, seed=1))

    def run(engine: str):
        return run_bfce_trials(
            population, trials=trials, base_seed=BASE_SEED, engine=engine
        )

    def batched_1t():
        # Same batched engine pinned to one kernel thread: the baseline the
        # multicore gate measures the threaded run against.
        with _harness.pinned_threads(1):
            return run("batched")

    engines = {
        "serial": lambda: run("serial"),
        "batched_1t": batched_1t,
        "batched": lambda: run("batched"),
    }

    results = {}
    reference = None
    for name, fn in engines.items():
        fn()  # warm-up: page in buffers outside the clock
        seconds, records = _harness.time_best_of(fn, repeats)
        n_hats = [r.n_hat for r in records]
        if reference is None:
            reference = n_hats
        results[name] = {
            "seconds": round(seconds, 4),
            "trials_per_sec": round(trials / seconds, 2),
            "max_abs_dn_hat_vs_serial": max(
                abs(a - b) for a, b in zip(n_hats, reference)
            ),
        }

    serial_tps = results["serial"]["trials_per_sec"]
    for name in results:
        results[name]["speedup_vs_serial"] = round(
            results[name]["trials_per_sec"] / serial_tps, 2
        )

    host = host_block()
    return {
        "benchmark": "engine_throughput",
        "workload": {
            "n": n,
            "trials": trials,
            "base_seed": BASE_SEED,
            "channel": "perfect",
            "repeats_best_of": repeats,
        },
        "host": host,
        "multicore": {
            "cpus_visible": host["cpus_affinity"],
            "threads": host["native_threads"],
            "speedup_threaded_vs_1t": round(
                results["batched"]["trials_per_sec"]
                / results["batched_1t"]["trials_per_sec"],
                2,
            ),
        },
        "engines": results,
    }


def main(argv: list[str] | None = None) -> int:
    smoke = _harness.parse_smoke(argv)
    n = 5_000 if smoke else _harness.env_int("REPRO_BENCH_N", 100_000)
    trials = 6 if smoke else _harness.env_int("REPRO_BENCH_TRIALS", 50)
    repeats = 1 if smoke else _harness.env_int("REPRO_BENCH_REPEATS", 3)

    report = run_engine_bench(n=n, trials=trials, repeats=repeats)
    for name, stats in report["engines"].items():
        print(
            f"{name:>8}: {stats['seconds']:.3f}s  "
            f"{stats['trials_per_sec']:7.1f} trials/s  "
            f"{stats['speedup_vs_serial']:5.2f}x  "
            f"max|dn_hat|={stats['max_abs_dn_hat_vs_serial']}"
        )

    engines = report["engines"]
    checks = [
        Check(
            "engine.drift",
            max(s["max_abs_dn_hat_vs_serial"] for s in engines.values()),
            "==",
            expect=0.0,
        ),
        Check(
            "engine.batched_speedup",
            engines["batched"]["speedup_vs_serial"],
            ">=",
            floor="engine_batched_speedup_min",
        ),
        Check(
            "engine.threaded_speedup",
            report["multicore"]["speedup_threaded_vs_1t"],
            ">=",
            floor="engine_threaded_speedup_min",
            multicore=True,
        ),
    ]
    return _harness.finish(
        report, checks, _harness.out_path("BENCH_engine.json"), smoke
    )


if __name__ == "__main__":
    raise SystemExit(main())
