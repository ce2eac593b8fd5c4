"""Perf harness for the dynamic-population tracking layer.

Checks the tracking layer's two hard contracts from the design doc:

1. **Accuracy per airtime** — over the benchmark churn trace, the EKF
   tracker must beat repeated independent single-round BFCE estimates on
   RMSE × air-seconds (the figure of merit of ``fig_dynamics``).  The
   sliding-window tracker and the subsampled EKF (one round every 4
   epochs) are measured alongside for the trend record but not gated.
2. **Cache round-trip** — a grid of ``dynamics_series`` sweep points
   (modes × trace seeds) runs cold then warm against the content-addressed
   cache: the warm pass must hit (``dynamics_warm_hit_rate_min``) and every
   warm payload must be **bit-identical** to its cold counterpart.

At full scale the harness additionally times the scale workload from the
acceptance criteria — a 10⁴-epoch EKF series over a 10⁶-tag trace on the
analytic engine — and checks its wall time against
``dynamics_scale_wall_seconds_max``.  Results and every check's verdict go
to ``BENCH_dynamics.json``; exit 1 on any failed check.

Run as a script or module::

    PYTHONPATH=src python benchmarks/bench_perf_dynamics.py
    PYTHONPATH=src python benchmarks/bench_perf_dynamics.py --smoke

``--smoke`` shrinks the traces so CI can run the harness twice (cold +
warm process) in seconds; the accuracy and cache checks still apply, the
scale check is recorded as skipped (a tiny trace measures noise, not the
engine).

Knobs (environment variables):

* ``REPRO_BENCH_N``      scale-workload cardinality   (default 1000000)
* ``REPRO_BENCH_CACHE``  cache directory              (default <repo>/.repro_cache/bench-dynamics)
* ``REPRO_BENCH_OUT``    output path                  (default <repo>/BENCH_dynamics.json)

The cache directory persists across invocations on purpose: CI runs the
harness twice and asserts the second invocation's *cold* pass is ≥ 90 %
hits — the on-disk round-trip, not just the in-process one.
"""

from __future__ import annotations

import time
from pathlib import Path

import _harness  # first: puts src/ on sys.path
from _harness import Check

from repro.experiments.dynamics import PopulationTrace, run_tracking_series
from repro.experiments.sweep import SweepPoint
from repro.obs.host import host_block

BASE_SEED = 2015  # ICPP'15 — fixed so every pass replays the same seeds

#: Tracking variants measured on the comparison trace.  ``measure_every``
#: scales airtime down; only independent-vs-EKF at equal airtime is gated.
VARIANTS = (
    ("independent", "independent", 1),
    ("ekf", "ekf", 1),
    ("window", "window", 1),
    ("ekf/4", "ekf", 4),
)


def _fresh_trace(initial_size: int, churn_rate: float) -> PopulationTrace:
    """The benchmark churn trace (size-only: the analytic engine needs no IDs)."""
    return PopulationTrace(
        initial_size=initial_size,
        churn_rate=churn_rate,
        seed=BASE_SEED,
        track_ids=False,
    )


def run_comparison(*, initial_size: int, epochs: int, churn_rate: float) -> dict:
    """Every tracking variant over the same trace and measurement seeds."""
    series = {}
    for label, mode, measure_every in VARIANTS:
        t0 = time.perf_counter()
        result = run_tracking_series(
            _fresh_trace(initial_size, churn_rate),
            epochs=epochs,
            mode=mode,
            base_seed=BASE_SEED + 7_000,
            measure_every=measure_every,
        )
        summary = result.summary()
        summary["wall_seconds"] = round(time.perf_counter() - t0, 4)
        series[label] = summary
    return series


def run_scale(*, n: int, epochs: int) -> dict:
    """The acceptance-criteria scale workload: 10⁴ epochs at n = 10⁶."""
    t0 = time.perf_counter()
    result = run_tracking_series(
        _fresh_trace(n, 0.005),
        epochs=epochs,
        mode="ekf",
        base_seed=BASE_SEED + 11_000,
    )
    seconds = time.perf_counter() - t0
    summary = result.summary()
    summary["n"] = n
    summary["wall_seconds"] = round(seconds, 4)
    summary["relative_rmse"] = result.rmse / n
    return summary


def build_cache_grid(
    *, initial_size: int, epochs: int, seeds: int
) -> list[SweepPoint]:
    """Modes × trace seeds: ≥ 10 ``dynamics_series`` points in full mode."""
    return [
        SweepPoint.dynamics_series(
            initial_size=initial_size,
            epochs=epochs,
            mode=mode,
            churn_rate=0.01,
            trace_seed=BASE_SEED + seed,
            base_seed=BASE_SEED + 7_000 + seed,
        )
        for mode in ("independent", "ekf", "window")
        for seed in range(seeds)
    ]


def run_dynamics_bench(
    *,
    epochs: int = 400,
    scale_n: int = 1_000_000,
    scale_epochs: int = 10_000,
    workers: int | None = None,
    cache_dir: Path | None = None,
    smoke: bool = False,
) -> dict:
    """Run comparison, scale (full mode) and cache passes; return the report."""
    if workers is None:
        workers = _harness.default_workers()
    if cache_dir is None:
        cache_dir = _harness.cache_path("bench-dynamics")
    if smoke:
        initial_size, churn_rate, grid_seeds, grid_epochs = 20_000, 0.01, 2, 60
    else:
        initial_size, churn_rate, grid_seeds, grid_epochs = 100_000, 0.01, 4, 200

    series = run_comparison(
        initial_size=initial_size, epochs=epochs, churn_rate=churn_rate
    )
    scale = None if smoke else run_scale(n=scale_n, epochs=scale_epochs)

    points = build_cache_grid(
        initial_size=initial_size // 2, epochs=grid_epochs, seeds=grid_seeds
    )
    _, cold_pass, cold_payloads = _harness.timed_sweep(points, cache_dir, workers)
    _, warm_pass, warm_payloads = _harness.timed_sweep(points, cache_dir, workers)
    payload_mismatches = sum(
        cold != warm for cold, warm in zip(cold_payloads, warm_payloads)
    )

    return {
        "benchmark": "dynamics",
        "workload": {
            "initial_size": initial_size,
            "epochs": epochs,
            "churn_rate": churn_rate,
            "grid_points": len(points),
            "grid_epochs": grid_epochs,
            "base_seed": BASE_SEED,
            "workers": workers,
            "cache_dir": str(cache_dir),
            "smoke": smoke,
        },
        "host": host_block(),
        "series": series,
        "scale": scale,
        "passes": {"cold": cold_pass, "warm": warm_pass},
        "payload_mismatches": payload_mismatches,
        "gates": {
            "ekf_rmse_airtime": series["ekf"]["rmse_airtime"],
            "independent_rmse_airtime": series["independent"]["rmse_airtime"],
            "advantage": (
                series["independent"]["rmse_airtime"]
                / series["ekf"]["rmse_airtime"]
                if series["ekf"]["rmse_airtime"] > 0
                else float("inf")
            ),
            "scale_wall_seconds": None if scale is None else scale["wall_seconds"],
        },
    }


def main(argv: list[str] | None = None) -> int:
    smoke = _harness.parse_smoke(argv)
    report = run_dynamics_bench(
        epochs=120 if smoke else 400,
        scale_n=_harness.env_int("REPRO_BENCH_N", 1_000_000),
        workers=2 if smoke else None,
        smoke=smoke,
    )
    for label, summary in report["series"].items():
        print(
            f"{label:>12}: rmse={summary['rmse']:9.1f}  "
            f"air={summary['air_seconds']:8.2f}s  "
            f"rmse*air={summary['rmse_airtime']:12.1f}  "
            f"rounds={summary['measurements']}"
        )
    if report["scale"] is not None:
        scale = report["scale"]
        print(
            f"       scale: {scale['epochs']} epochs @ n={scale['n']}"
            f" -> {scale['wall_seconds']:.2f}s wall, "
            f"rmse={scale['rmse']:.0f} ({100 * scale['relative_rmse']:.3f}% rel)"
        )
    passes = report["passes"]
    for name in ("cold", "warm"):
        p = passes[name]
        print(
            f"{name:>12}: {p['seconds']:.3f}s  hits={p['hits']} "
            f"misses={p['misses']} hit_rate={p['hit_rate']:.2f}"
        )
    print(f"payload mismatches (cold vs warm): {report['payload_mismatches']}")

    gates = report["gates"]
    checks = [
        Check(
            "dynamics.ekf_rmse_airtime",
            gates["ekf_rmse_airtime"],
            "<",
            expect=gates["independent_rmse_airtime"],
        ),
        Check(
            "dynamics.payload_mismatches",
            report["payload_mismatches"],
            "==",
            expect=0,
        ),
        Check(
            "dynamics.warm_hit_rate",
            passes["warm"]["hit_rate"],
            ">=",
            floor="dynamics_warm_hit_rate_min",
        ),
        Check(
            "dynamics.scale_wall_seconds",
            gates["scale_wall_seconds"],
            "<",
            floor="dynamics_scale_wall_seconds_max",
        ),
    ]
    return _harness.finish(
        report, checks, _harness.out_path("BENCH_dynamics.json"), smoke
    )


if __name__ == "__main__":
    raise SystemExit(main())
