"""Perf-scaling harness: the analytic engine at n = 10⁵ … 10⁹.

Companion to ``bench_perf_engine.py`` (which tracks the bit-identical
engines): this harness certifies the analytic occupancy engine's headline
property — per-trial cost independent of the population size — by timing
BFCE trials at n = 10⁵, 10⁶, 10⁷, 10⁸ and 10⁹ under one shared
configuration (w = 2¹⁷ throughout: the default w = 8192 caps the estimable
range near 1.94·10⁷, while the scaled 2¹⁷ persistence grid reaches past
6.9·10⁹), then timing the batched *event* engine at n = 10⁷ on the same
configuration for the cross-engine speedup.  It writes
``BENCH_scale.json`` at the repo root and records three checks (each names
a floor key; ``_harness.py`` holds the thresholds and records the verdicts):

* **flatness** — analytic per-trial seconds at the largest n must stay
  within ``scale_flatness_max`` of the smallest n (the engine is O(w) per
  frame, so the only n-dependence left is the Binomial/Multinomial draws);
* **speedup** — the analytic engine must be ``scale_speedup_min`` times
  faster per trial than the batched event engine at n = 10⁷ (the event
  engines hash all n·k tag responses per frame; the analytic engine never
  touches a tagID);
* **accuracy** — the mean relative error at every n must sit inside the
  ε = 0.05 requirement (``scale_error_mean_max``).

The analytic engine is exact-in-distribution, not bit-identical, so unlike
the sibling harnesses there is no zero-drift check; the statistical
equivalence suite (``tests/experiments/test_analytic_engine.py``) owns that
contract instead.

Run as a script or module::

    PYTHONPATH=src python benchmarks/bench_perf_scale.py
    PYTHONPATH=src python benchmarks/bench_perf_scale.py --smoke

``--smoke`` shrinks the sweep (n = 10⁵/10⁶, comparison at 10⁶, the floors'
smoke values) so CI can exercise the harness — every check — in seconds.

Knobs (environment variables, overridden by ``--smoke``):

* ``REPRO_BENCH_TRIALS``   analytic trials per n    (default 20)
* ``REPRO_BENCH_REPEATS``  timing repetitions, best-of (default 3)
* ``REPRO_BENCH_OUT``      output path              (default <repo>/BENCH_scale.json)

The harness is also importable: ``run_scale_bench()`` returns the result
dict without touching the filesystem.
"""

from __future__ import annotations

import _harness  # first: puts src/ on sys.path
from _harness import Check

from repro.core.config import BFCEConfig
from repro.experiments.runner import run_bfce_trials, run_bfce_trials_analytic
from repro.obs.host import host_block
from repro.rfid.ids import uniform_ids
from repro.rfid.tags import TagPopulation

BASE_SEED = 2015  # ICPP'15 — fixed so every run replays the same seeds
SCALE_W = 1 << 17  # shared frame size: keeps n = 10⁹ inside the estimable range

#: The full-run population sweep.  w = 2¹⁷ with the scaled persistence grid
#: caps out at ~6.9·10⁹, so 10⁹ sits inside the guaranteed range while the
#: per-trial O(w) frame cost stays identical to the smaller points — the
#: flatness gate then measures exactly the residual n-dependence (the
#: Binomial/Multinomial ball draws).
FULL_N_VALUES = (100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000)


def run_scale_bench(
    *,
    n_values: tuple[int, ...] = FULL_N_VALUES,
    trials: int = 20,
    event_n: int = 10_000_000,
    event_trials: int = 2,
    repeats: int = 3,
    w: int = SCALE_W,
) -> dict:
    """Time the analytic engine across ``n_values`` and return the report."""
    config = BFCEConfig.scaled(int(w))

    analytic: dict[str, dict] = {}
    for n in n_values:
        fn = lambda n=n: run_bfce_trials_analytic(
            n, trials=trials, base_seed=BASE_SEED, config=config
        )
        fn()  # warm-up: JIT-compile the native scatter kernel off the clock
        seconds, records = _harness.time_best_of(fn, repeats)
        errors = [r.error for r in records]
        analytic[str(n)] = {
            "seconds": round(seconds, 4),
            "per_trial_ms": round(1e3 * seconds / trials, 4),
            "error_mean": round(sum(errors) / len(errors), 6),
            "error_max": round(max(errors), 6),
        }

    # Cross-engine comparison: the batched event engine at the same frame
    # size.  The event tag hash only implements the paper's 1/1024 grid, so
    # it runs the unscaled config; per-trial cost is dominated by hashing
    # the n tags either way.  Population build time is excluded — the gate
    # is about per-trial cost.
    event_config = BFCEConfig(w=int(w))
    population = TagPopulation(uniform_ids(event_n, seed=1))
    event_fn = lambda: run_bfce_trials(
        population,
        trials=event_trials,
        base_seed=BASE_SEED,
        engine="batched",
        config=event_config,
    )
    event_seconds, _ = _harness.time_best_of(event_fn, 1)
    event_per_trial_ms = 1e3 * event_seconds / event_trials

    first, last = str(n_values[0]), str(n_values[-1])
    flatness = analytic[last]["per_trial_ms"] / analytic[first]["per_trial_ms"]
    speedup = event_per_trial_ms / analytic[str(event_n)]["per_trial_ms"]

    return {
        "benchmark": "analytic_scale",
        "workload": {
            "n_values": list(n_values),
            "trials": trials,
            "base_seed": BASE_SEED,
            "w": int(w),
            "repeats_best_of": repeats,
            "event_engine": {"n": event_n, "trials": event_trials},
        },
        "host": host_block(),
        "analytic": analytic,
        "event_batched": {
            "n": event_n,
            "seconds": round(event_seconds, 4),
            "per_trial_ms": round(event_per_trial_ms, 2),
        },
        "gates": {
            "flatness_ratio": round(flatness, 3),
            "speedup_vs_event": round(speedup, 1),
        },
    }


def main(argv: list[str] | None = None) -> int:
    smoke = _harness.parse_smoke(argv)
    if smoke:
        n_values = (100_000, 1_000_000)
        event_n = 1_000_000
        trials, event_trials, repeats = 5, 1, 1
    else:
        n_values = FULL_N_VALUES
        event_n = 10_000_000
        trials = _harness.env_int("REPRO_BENCH_TRIALS", 20)
        event_trials = 2
        repeats = _harness.env_int("REPRO_BENCH_REPEATS", 3)

    report = run_scale_bench(
        n_values=n_values,
        trials=trials,
        event_n=event_n,
        event_trials=event_trials,
        repeats=repeats,
    )
    for n, stats in report["analytic"].items():
        print(
            f"analytic n={int(n):>11,}: {stats['per_trial_ms']:8.3f} ms/trial  "
            f"err mean={stats['error_mean']:.4f} max={stats['error_max']:.4f}"
        )
    ev = report["event_batched"]
    print(f"event    n={ev['n']:>11,}: {ev['per_trial_ms']:8.1f} ms/trial (batched)")

    gates = report["gates"]
    checks = [
        Check(
            "scale.flatness", gates["flatness_ratio"], "<=", floor="scale_flatness_max"
        ),
        Check(
            "scale.speedup_vs_event",
            gates["speedup_vs_event"],
            ">=",
            floor="scale_speedup_min",
        ),
        Check(
            "scale.error_mean",
            max(s["error_mean"] for s in report["analytic"].values()),
            "<=",
            floor="scale_error_mean_max",
        ),
    ]
    return _harness.finish(report, checks, _harness.out_path("BENCH_scale.json"), smoke)


if __name__ == "__main__":
    raise SystemExit(main())
