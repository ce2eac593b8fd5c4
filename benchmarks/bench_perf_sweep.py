"""Perf harness for the sweep execution layer: scheduler + result cache.

Measures what the sweep layer (:mod:`repro.experiments.sweep`) buys over
the pre-sweep execution model and gates its hard contracts:

1. **Serial reference** — every point of a reduced figure-set grid executed
   through the direct serial runners (``engine="serial"``), exactly as the
   figure generators ran before the sweep layer existed.
2. **Cold pass** — the same points through :func:`run_sweep` with an empty
   cache: deduped, executed on the batched/native engines, fanned out over
   worker processes, and persisted to the content-addressed cache.
3. **Warm pass** — the same call again: everything served from the cache.

Zero-drift check (exit 1 on violation): the ``TrialRecord``s decoded from
the cold *and* warm payloads must be **bit-identical** — max |Δn̂| = 0 and
max |Δseconds| = 0 — to the serial reference records.  The warm pass must
also hit the cache (``sweep_warm_hit_rate_min``).  At full scale the
harness additionally checks the cold and warm speedups over serial
(``sweep_cold_speedup_min``, ``sweep_warm_speedup_min``; no smoke values,
so ``--smoke`` records them as skipped).

It also times the real figure generators (reduced parameters) cold vs warm
against a private cache directory, since figure regeneration is the layer's
reason to exist.  Results go to ``BENCH_sweep.json``.

Run as a script or module::

    PYTHONPATH=src python benchmarks/bench_perf_sweep.py
    PYTHONPATH=src python benchmarks/bench_perf_sweep.py --smoke

``--smoke`` shrinks the grid so CI can run the harness twice (cold + warm
process) in seconds; the drift and hit-rate checks still apply, the timing
checks do not (tiny workloads measure noise, not the engines).

Knobs (environment variables, overridden by ``--smoke``):

* ``REPRO_BENCH_N``        largest grid cardinality      (default 100000)
* ``REPRO_BENCH_TRIALS``   trials per BFCE point         (default 10)
* ``REPRO_BENCH_CACHE``    cache directory               (default <repo>/.repro_cache/bench)
* ``REPRO_BENCH_OUT``      output path                   (default <repo>/BENCH_sweep.json)

The cache directory persists across invocations on purpose: CI runs the
harness twice and asserts the second invocation's *cold* pass is ≥ 90 %
hits with zero drift — the on-disk round-trip, not just the in-process one.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import _harness  # first: puts src/ on sys.path
from _harness import Check

from repro.baselines import LOF, SRC, ZOE
from repro.core.accuracy import AccuracyRequirement
from repro.experiments.runner import run_bfce_trials, run_trials
from repro.experiments.sweep import SweepPoint, records_from_payload
from repro.experiments.workloads import population
from repro.obs.host import host_block

BASE_SEED = 2015  # ICPP'15 — fixed so every pass replays the same seeds


def build_grid(
    *, n_values: list[int], distributions: list[str], trials: int
) -> list[SweepPoint]:
    """A reduced figure-set grid: BFCE accuracy sweep + baseline comparison."""
    points = [
        SweepPoint.bfce_trials(
            distribution=dist,
            n=n,
            trials=trials,
            base_seed=BASE_SEED + 7_000,
            pop_seed=BASE_SEED,
        )
        for dist in distributions
        for n in n_values
    ]
    comparison_n = n_values[-1]
    points += [
        SweepPoint.baseline_trials(
            name,
            distribution="T2",
            n=comparison_n,
            trials=max(2, trials // 2),
            base_seed=BASE_SEED + offset,
            pop_seed=BASE_SEED,
        )
        for name, offset in (("ZOE", 202), ("SRC", 303), ("LOF", 404))
    ]
    return points


def run_serial_reference(points: list[SweepPoint]) -> tuple[float, list[list]]:
    """Execute every point through the direct serial runners (pre-sweep model)."""
    t0 = time.perf_counter()
    record_lists = []
    for point in points:
        spec = point.spec
        pop = population(
            spec["distribution"],
            spec["n"],
            seed=spec["pop_seed"],
            rn_source=spec["rn_source"],
            rn_seed=spec["rn_seed"],
            persistence_mode=spec["persistence_mode"],
        )
        if spec["kind"] == "bfce_trials":
            records = run_bfce_trials(
                pop,
                trials=spec["trials"],
                eps=spec["eps"],
                delta=spec["delta"],
                base_seed=spec["base_seed"],
                distribution=spec["distribution"],
                engine="serial",
            )
        else:
            requirement = AccuracyRequirement(spec["eps"], spec["delta"])
            factory = {"LOF": LOF, "ZOE": ZOE, "SRC": SRC}[spec["estimator"]]
            records = run_trials(
                factory(requirement=requirement, **spec["args"]),
                pop,
                trials=spec["trials"],
                base_seed=spec["base_seed"],
                distribution=spec["distribution"],
                engine="serial",
            )
        record_lists.append(records)
    return time.perf_counter() - t0, record_lists


def _max_drift(reference: list[list], candidate: list[list]) -> dict:
    """Max |Δn̂| and |Δseconds| between two aligned record-list sets."""
    max_dn = 0.0
    max_ds = 0.0
    count = 0
    for ref_records, got_records in zip(reference, candidate):
        assert len(ref_records) == len(got_records)
        for ref, got in zip(ref_records, got_records):
            max_dn = max(max_dn, abs(ref.n_hat - got.n_hat))
            max_ds = max(max_ds, abs(ref.seconds - got.seconds))
            count += 1
    return {"max_abs_dn_hat": max_dn, "max_abs_dseconds": max_ds, "records": count}


def _figure_set_seconds(smoke: bool) -> float:
    """Wall time of the real figure generators (reduced parameters)."""
    from repro.experiments import figures as fig_mod

    big = 10_000 if smoke else 100_000
    t0 = time.perf_counter()
    fig_mod.fig3_linearity(n_values=(1_000, big), trials=2)
    fig_mod.fig5_monotonicity(n_values=(10_000, 100_000))
    fig_mod.fig6_distributions(n=20_000)
    fig_mod.fig7_accuracy(
        trials=2,
        n_values=(1_000, big),
        eps_values=(0.05,),
        delta_values=(0.05,),
        reference_n=big,
    )
    fig_mod.fig8_cdf(rounds=5 if smoke else 20, n=big)
    fig_mod.fig9_fig10_comparison(
        trials=1,
        n_values=(big,),
        eps_values=(0.05,),
        delta_values=(0.05,),
        reference_n=big,
    )
    fig_mod.lower_bound_validity(trials=3, n_values=(1_000, 10_000))
    return time.perf_counter() - t0


def run_sweep_bench(
    *,
    n_max: int = 100_000,
    trials: int = 10,
    workers: int | None = None,
    cache_dir: Path | None = None,
    smoke: bool = False,
) -> dict:
    """Run the serial/cold/warm passes and return the report dict."""
    if workers is None:
        workers = _harness.default_workers()
    if cache_dir is None:
        cache_dir = _harness.cache_path("bench")
    if smoke:
        n_values = [3_000]
        distributions = ["T1", "T2"]
    else:
        n_values = sorted({10_000, n_max // 2, n_max})
        distributions = ["T1", "T2", "T3"]
    points = build_grid(
        n_values=n_values, distributions=distributions, trials=trials
    )

    serial_seconds, serial_records = run_serial_reference(points)
    passes = {"serial_reference": {"seconds": round(serial_seconds, 4)}}
    records = {}
    for name in ("cold", "warm"):
        seconds, passes[name], payloads = _harness.timed_sweep(
            points, cache_dir, workers
        )
        passes[name]["speedup_vs_serial"] = round(serial_seconds / seconds, 2)
        records[name] = [records_from_payload(p) for p in payloads]

    drift_cold = _max_drift(serial_records, records["cold"])
    drift_warm = _max_drift(serial_records, records["warm"])
    drift = {
        "max_abs_dn_hat": max(
            drift_cold["max_abs_dn_hat"], drift_warm["max_abs_dn_hat"]
        ),
        "max_abs_dseconds": max(
            drift_cold["max_abs_dseconds"], drift_warm["max_abs_dseconds"]
        ),
        "records": drift_cold["records"],
        "cold": drift_cold,
        "warm": drift_warm,
    }

    # Figure generators against the same cache dir: cold-ish (whatever the
    # grid above already seeded) then fully warm.
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    try:
        figures_cold = _figure_set_seconds(smoke)
        figures_warm = _figure_set_seconds(smoke)
    finally:
        os.environ.pop("REPRO_CACHE_DIR", None)

    return {
        "benchmark": "sweep_cache",
        "workload": {
            "points": len(points),
            "n_values": n_values,
            "distributions": distributions,
            "trials": trials,
            "base_seed": BASE_SEED,
            "workers": workers,
            "cache_dir": str(cache_dir),
            "smoke": smoke,
        },
        "host": host_block(),
        "passes": passes,
        "figure_set": {
            "cold_seconds": round(figures_cold, 4),
            "warm_seconds": round(figures_warm, 4),
            "warm_speedup": round(figures_cold / figures_warm, 2)
            if figures_warm > 0
            else float("inf"),
        },
        "drift": drift,
    }


def main(argv: list[str] | None = None) -> int:
    smoke = _harness.parse_smoke(argv)
    n_max = 10_000 if smoke else _harness.env_int("REPRO_BENCH_N", 100_000)
    trials = 4 if smoke else _harness.env_int("REPRO_BENCH_TRIALS", 10)
    workers = 2 if smoke else None
    report = run_sweep_bench(n_max=n_max, trials=trials, workers=workers, smoke=smoke)
    passes = report["passes"]
    print(f"serial reference: {passes['serial_reference']['seconds']:.3f}s")
    for name in ("cold", "warm"):
        p = passes[name]
        print(
            f"{name:>16}: {p['seconds']:.3f}s  {p['speedup_vs_serial']:6.2f}x  "
            f"hits={p['hits']} misses={p['misses']} hit_rate={p['hit_rate']:.2f}"
        )
    fig = report["figure_set"]
    print(
        f"      figure set: cold {fig['cold_seconds']:.3f}s -> "
        f"warm {fig['warm_seconds']:.3f}s ({fig['warm_speedup']:.1f}x)"
    )
    drift = report["drift"]
    print(
        f"           drift: max|dn_hat|={drift['max_abs_dn_hat']} "
        f"max|dseconds|={drift['max_abs_dseconds']} over {drift['records']} records"
    )

    checks = [
        Check(
            "sweep.drift",
            max(drift["max_abs_dn_hat"], drift["max_abs_dseconds"]),
            "==",
            expect=0.0,
        ),
        Check(
            "sweep.warm_hit_rate",
            passes["warm"]["hit_rate"],
            ">=",
            floor="sweep_warm_hit_rate_min",
        ),
        Check(
            "sweep.cold_speedup",
            passes["cold"]["speedup_vs_serial"],
            ">=",
            floor="sweep_cold_speedup_min",
        ),
        Check(
            "sweep.warm_speedup",
            passes["warm"]["speedup_vs_serial"],
            ">=",
            floor="sweep_warm_speedup_min",
        ),
    ]
    return _harness.finish(report, checks, _harness.out_path("BENCH_sweep.json"), smoke)


if __name__ == "__main__":
    raise SystemExit(main())
