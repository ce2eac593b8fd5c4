"""Perf-regression harness: serial vs. batched baseline trial engines.

Companion to ``bench_perf_engine.py`` (which tracks the BFCE engines): this
harness times the serial per-trial path against the lockstep batch engine
(:mod:`repro.baselines.batch`) for each Fig. 9–10 baseline — LOF, ZOE, SRC —
on an identical workload, by default n = 10⁵ tags and T = 50 Monte-Carlo
trials.  It writes ``BENCH_baselines.json`` at the repo root with
trials/sec per (baseline, engine), the per-baseline and aggregate speedups,
and one drift check versus the serial reference, which must be exactly 0.0:
the batch engine claims bit-equivalence of the *estimate* and of the
*metered protocol seconds*, not statistical agreement.

Run as a script or module::

    PYTHONPATH=src python benchmarks/bench_perf_baselines.py
    PYTHONPATH=src python benchmarks/bench_perf_baselines.py --smoke

``--smoke`` shrinks the workload (n = 5000, T = 6, best-of-1) so CI can
exercise the full harness — including the drift check — in a few seconds.

Knobs (environment variables, overridden by ``--smoke``):

* ``REPRO_BENCH_N``        population size          (default 100000)
* ``REPRO_BENCH_TRIALS``   Monte-Carlo trials       (default 50)
* ``REPRO_BENCH_REPEATS``  timing repetitions, best-of (default 3)
* ``REPRO_BENCH_OUT``      output path              (default <repo>/BENCH_baselines.json)

The harness is also importable: ``run_baseline_bench()`` returns the result
dict without touching the filesystem.
"""

from __future__ import annotations

import _harness  # first: puts src/ on sys.path
from _harness import Check

from repro.baselines import LOF, SRC, ZOE
from repro.core.accuracy import AccuracyRequirement
from repro.experiments.runner import run_trials
from repro.obs.host import host_block
from repro.rfid.ids import uniform_ids
from repro.rfid.tags import TagPopulation

BASE_SEED = 2015  # ICPP'15 — fixed so both engines replay the same seeds


def run_baseline_bench(
    *,
    n: int = 100_000,
    trials: int = 50,
    repeats: int = 3,
) -> dict:
    """Time both engines per baseline on one workload; return the report."""
    population = TagPopulation(uniform_ids(n, seed=1))
    req = AccuracyRequirement(0.05, 0.05)
    estimators = {"LOF": LOF(), "ZOE": ZOE(req), "SRC": SRC(req)}

    baselines = {}
    serial_total = 0.0
    batched_total = 0.0
    for name, estimator in estimators.items():
        per_engine = {}
        reference = None
        for engine in ("serial", "batched"):
            fn = lambda: run_trials(  # noqa: E731
                estimator,
                population,
                trials=trials,
                base_seed=BASE_SEED,
                engine=engine,
            )
            fn()  # warm-up: page in buffers outside the clock
            seconds, records = _harness.time_best_of(fn, repeats)
            if reference is None:
                reference = records
            per_engine[engine] = {
                "seconds": round(seconds, 4),
                "trials_per_sec": round(trials / seconds, 2),
                "max_abs_dn_hat_vs_serial": max(
                    abs(a.n_hat - b.n_hat) for a, b in zip(records, reference)
                ),
                "max_abs_dseconds_vs_serial": max(
                    abs(a.seconds - b.seconds) for a, b in zip(records, reference)
                ),
            }
        serial_total += per_engine["serial"]["seconds"]
        batched_total += per_engine["batched"]["seconds"]
        baselines[name] = {
            **per_engine,
            "speedup": round(
                per_engine["serial"]["seconds"] / per_engine["batched"]["seconds"], 2
            ),
        }

    return {
        "benchmark": "baseline_engine_throughput",
        "workload": {
            "n": n,
            "trials": trials,
            "base_seed": BASE_SEED,
            "eps": req.eps,
            "delta": req.delta,
            "channel": "perfect",
            "repeats_best_of": repeats,
        },
        "host": host_block(),
        "baselines": baselines,
        "aggregate": {
            "serial_seconds": round(serial_total, 4),
            "batched_seconds": round(batched_total, 4),
            "speedup": round(serial_total / batched_total, 2),
        },
    }


def main(argv: list[str] | None = None) -> int:
    smoke = _harness.parse_smoke(argv)
    n = 5_000 if smoke else _harness.env_int("REPRO_BENCH_N", 100_000)
    trials = 6 if smoke else _harness.env_int("REPRO_BENCH_TRIALS", 50)
    repeats = 1 if smoke else _harness.env_int("REPRO_BENCH_REPEATS", 3)

    report = run_baseline_bench(n=n, trials=trials, repeats=repeats)
    for name, stats in report["baselines"].items():
        print(
            f"{name:>4}: serial {stats['serial']['seconds']:7.3f}s  "
            f"batched {stats['batched']['seconds']:7.3f}s  "
            f"{stats['speedup']:5.2f}x  "
            f"max|dn_hat|={stats['batched']['max_abs_dn_hat_vs_serial']}  "
            f"max|dsec|={stats['batched']['max_abs_dseconds_vs_serial']}"
        )
    agg = report["aggregate"]
    print(
        f" agg: serial {agg['serial_seconds']:7.3f}s  "
        f"batched {agg['batched_seconds']:7.3f}s  {agg['speedup']:5.2f}x"
    )

    drift = max(
        max(
            stats["batched"]["max_abs_dn_hat_vs_serial"],
            stats["batched"]["max_abs_dseconds_vs_serial"],
        )
        for stats in report["baselines"].values()
    )
    checks = [Check("baselines.drift", drift, "==", expect=0.0)]
    return _harness.finish(
        report, checks, _harness.out_path("BENCH_baselines.json"), smoke
    )


if __name__ == "__main__":
    raise SystemExit(main())
