"""Sketch-layer perf harness: HLL register kernels and coordinator unions.

Companion to ``bench_perf_engine.py`` (BFCE engines) and
``bench_perf_scale.py`` (analytic scaling): this harness certifies the
mergeable-sketch layer added for multi-reader aggregation.  It times the
fused native register kernel against the chunked NumPy update at
n = 10⁶, times the coordinator's pre-stacked union+estimate at 2 and 256
readers, checks the observed relative error against the HLL analytic bound
1.04/√m, and replays the update kernel under 1/2/7 threads to prove
bit-identity with the NumPy reference.  It writes ``BENCH_sketch.json``
at the repo root and records these checks (the timing ones name a floor
key; ``_harness.py`` holds the thresholds and records the verdicts):

* **native available** — the native library must load (exact);
* **kernel speedup** — the fused C update (hash + bucket + rank + max in
  one pass) must be ``sketch_native_speedup_min`` times the NumPy
  multi-pass update at n = 10⁶;
* **union flatness** — coordinator union+estimate at p = 10 must grow
  at most ``sketch_union_flatness_max`` from 2 to 256 readers (the
  register merge is O(R·m) byte maxes, so the fixed estimate cost
  dominates; p = 12 is reported alongside for transparency — at m = 4096
  the 1 MiB merge is memory-bound and exceeds the fixed cost, which is
  exactly why the gate pins p);
* **accuracy** — mean observed relative error at most
  ``sketch_error_bound_factor_max`` × 1.04/√m;
* **bit-identity** — native registers equal the NumPy reference register
  for register under ``REPRO_NATIVE_THREADS`` ∈ {1, 2, 7}; zero tolerance.

A multicore check (threaded vs single-thread native update,
``sketch_threaded_speedup_min``) follows the ``bench_perf_engine.py``
convention: gated at full scale when the host affinity mask exposes ≥ 2
cores, recorded as skipped otherwise.

Run as a script or module::

    PYTHONPATH=src python benchmarks/bench_perf_sketch.py
    PYTHONPATH=src python benchmarks/bench_perf_sketch.py --smoke

``--smoke`` shrinks the workload (n = 2·10⁵, fewer repeats, the floors'
smoke values) so CI can exercise the harness in seconds.  The bit-identity
check is never relaxed.

Knobs (environment variables, overridden by ``--smoke``):

* ``REPRO_BENCH_N``        kernel/accuracy population  (default 1_000_000)
* ``REPRO_BENCH_REPEATS``  timing repetitions, best-of (default 3)
* ``REPRO_BENCH_OUT``      output path  (default <repo>/BENCH_sketch.json)

The harness is also importable: ``run_sketch_bench()`` returns the result
dict without touching the filesystem.
"""

from __future__ import annotations

import _harness  # first: puts src/ on sys.path
import numpy as np
from _harness import Check

from repro.obs.host import host_block
from repro.rfid import _native
from repro.rfid.ids import uniform_ids
from repro.rfid.multireader import SketchCoordinator
from repro.sketch.hll import (
    HLLSketch,
    _seed_mix,
    hll_estimate,
    hll_registers,
    hll_registers_numpy,
    relative_error_bound,
)

BASE_SEED = 2015  # ICPP'15 — fixed so every run replays the same seeds

#: Reader counts for the union-flatness measurement; the gate compares the
#: two endpoints.
READER_COUNTS = (2, 256)

#: Thread counts replayed by the bit-identity gate (serial, the common CI
#: pair, and a deliberately odd count that exercises ragged block splits).
IDENTITY_THREADS = (1, 2, 7)


def _time_per_call_us(fn, calls: int, repeats: int) -> float:
    """Best-of mean microseconds per call over ``calls`` back-to-back calls."""

    def burst():
        for _ in range(calls):
            fn()

    return 1e6 * _harness.time_best_of(burst, repeats)[0] / calls


def _filled_coordinator(ids: np.ndarray, n_readers: int, p: int) -> SketchCoordinator:
    """A coordinator whose bank holds real per-reader register rows.

    The ids are split round-robin across readers so every row is a genuine
    kernel output (realistic register value distribution), while total
    build cost stays one pass over ``ids`` regardless of the reader count.
    """
    coordinator = SketchCoordinator(n_readers, p=p, seed=BASE_SEED)
    for r in range(n_readers):
        sketch = HLLSketch(p, seed=BASE_SEED)
        sketch.add_ids(ids[r::n_readers])
        coordinator.submit(r, sketch)
    return coordinator


def run_sketch_bench(
    *,
    n: int = 1_000_000,
    p: int = 12,
    flatness_p: int = 10,
    union_fill_n: int = 200_000,
    union_calls: int = 200,
    accuracy_seeds: int = 5,
    repeats: int = 3,
) -> dict:
    """Measure kernels, unions, accuracy and identity; return the report."""
    ids = uniform_ids(n, seed=BASE_SEED)
    seed_mix = _seed_mix(BASE_SEED)

    # --- register kernel: fused native vs chunked NumPy -------------------
    native_available = _native.get_lib() is not None
    numpy_seconds, _ = _harness.time_best_of(
        lambda: hll_registers_numpy(ids, seed_mix, p), repeats
    )
    kernel = {
        "n": n,
        "p": p,
        "numpy_ms": round(1e3 * numpy_seconds, 3),
        "native_available": native_available,
    }
    if native_available:
        native_seconds, _ = _harness.time_best_of(
            lambda: _native.hll_update_native(ids, seed_mix, p), repeats
        )
        kernel["native_ms"] = round(1e3 * native_seconds, 3)
        kernel["speedup"] = round(numpy_seconds / native_seconds, 2)

        # Multicore: threaded update vs the same kernel pinned to 1 thread.
        with _harness.pinned_threads(1):
            one_thread, _ = _harness.time_best_of(
                lambda: _native.hll_update_native(ids, seed_mix, p), repeats
            )
        kernel["speedup_threaded_vs_1t"] = round(one_thread / native_seconds, 2)

    # --- coordinator union flatness: 2 vs 256 readers ---------------------
    fill_ids = uniform_ids(union_fill_n, seed=BASE_SEED + 1)
    union: dict[str, dict] = {}
    for p_run in (flatness_p, p):
        per_reader_us = {}
        for n_readers in READER_COUNTS:
            coordinator = _filled_coordinator(fill_ids, n_readers, p_run)
            per_reader_us[str(n_readers)] = round(
                _time_per_call_us(coordinator.estimate, union_calls, repeats), 2
            )
        first, last = (str(r) for r in (READER_COUNTS[0], READER_COUNTS[-1]))
        union[f"p{p_run}"] = {
            "union_estimate_us": per_reader_us,
            "flatness_ratio": round(per_reader_us[last] / per_reader_us[first], 3),
        }

    # --- accuracy vs the 1.04/sqrt(m) bound -------------------------------
    bound = relative_error_bound(p)
    errors = []
    for s in range(accuracy_seeds):
        registers = hll_registers(ids, BASE_SEED + s, p)
        errors.append(abs(hll_estimate(registers) - n) / n)
    accuracy = {
        "n": n,
        "p": p,
        "bound": round(bound, 6),
        "error_mean": round(float(np.mean(errors)), 6),
        "error_max": round(float(np.max(errors)), 6),
        "bound_factor": round(float(np.mean(errors)) / bound, 3),
        "seeds": accuracy_seeds,
    }

    # --- bit-identity across thread counts --------------------------------
    identity_ids = ids[: min(n, 300_000)]
    reference = hll_registers_numpy(identity_ids, seed_mix, p)
    identity = {"threads": list(IDENTITY_THREADS), "native_available": native_available}
    mismatches = None
    if native_available:
        mismatches = 0
        for threads in IDENTITY_THREADS:
            with _harness.pinned_threads(threads):
                registers = _native.hll_update_native(identity_ids, seed_mix, p)
            mismatches += int(np.count_nonzero(registers != reference))
    identity["register_mismatches"] = mismatches

    flat_key = f"p{flatness_p}"
    return {
        "benchmark": "sketch_perf",
        "workload": {
            "n": n,
            "p": p,
            "flatness_p": flatness_p,
            "union_fill_n": union_fill_n,
            "union_calls": union_calls,
            "reader_counts": list(READER_COUNTS),
            "accuracy_seeds": accuracy_seeds,
            "base_seed": BASE_SEED,
            "repeats_best_of": repeats,
        },
        "host": host_block(),
        "kernel": kernel,
        "union": union,
        "accuracy": accuracy,
        "identity": identity,
        "gates": {
            "native_speedup": kernel.get("speedup"),
            "union_flatness_ratio": union[flat_key]["flatness_ratio"],
            "error_bound_factor": accuracy["bound_factor"],
            "identity_mismatches": mismatches,
        },
    }


def main(argv: list[str] | None = None) -> int:
    smoke = _harness.parse_smoke(argv)
    if smoke:
        n = 200_000
        union_fill_n, union_calls = 60_000, 60
        accuracy_seeds, repeats = 3, 1
    else:
        n = _harness.env_int("REPRO_BENCH_N", 1_000_000)
        union_fill_n, union_calls = 200_000, 200
        accuracy_seeds = 5
        repeats = _harness.env_int("REPRO_BENCH_REPEATS", 3)

    report = run_sketch_bench(
        n=n,
        union_fill_n=union_fill_n,
        union_calls=union_calls,
        accuracy_seeds=accuracy_seeds,
        repeats=repeats,
    )
    kernel = report["kernel"]
    if kernel["native_available"]:
        print(
            f"kernel   n={kernel['n']:>9,}: numpy {kernel['numpy_ms']:8.2f} ms  "
            f"native {kernel['native_ms']:7.2f} ms  speedup {kernel['speedup']:.1f}x  "
            f"(threaded vs 1t: {kernel['speedup_threaded_vs_1t']:.2f}x)"
        )
    else:
        print(f"kernel   n={kernel['n']:>9,}: numpy {kernel['numpy_ms']:8.2f} ms  "
              "native UNAVAILABLE")
    for p_key, stats in report["union"].items():
        us = stats["union_estimate_us"]
        print(
            f"union    {p_key:>4}: "
            + "  ".join(f"R={r} {t:8.1f} us" for r, t in us.items())
            + f"  flatness {stats['flatness_ratio']:.2f}x"
        )
    acc = report["accuracy"]
    print(
        f"accuracy n={acc['n']:>9,}: err mean={acc['error_mean']:.4f} "
        f"max={acc['error_max']:.4f} bound={acc['bound']:.4f} "
        f"factor {acc['bound_factor']:.2f}x"
    )
    ident = report["identity"]
    print(
        f"identity threads={ident['threads']}: "
        f"{ident['register_mismatches']} register mismatch(es)"
    )

    gates = report["gates"]
    checks = [
        Check("sketch.native_available", kernel["native_available"], "==", expect=True),
        Check(
            "sketch.identity_mismatches",
            gates["identity_mismatches"],
            "==",
            expect=0,
        ),
        Check(
            "sketch.native_speedup",
            gates["native_speedup"],
            ">=",
            floor="sketch_native_speedup_min",
        ),
        Check(
            "sketch.threaded_speedup",
            kernel.get("speedup_threaded_vs_1t"),
            ">=",
            floor="sketch_threaded_speedup_min",
            multicore=True,
        ),
        Check(
            "sketch.union_flatness",
            gates["union_flatness_ratio"],
            "<=",
            floor="sketch_union_flatness_max",
        ),
        Check(
            "sketch.error_bound_factor",
            gates["error_bound_factor"],
            "<=",
            floor="sketch_error_bound_factor_max",
        ),
    ]
    return _harness.finish(report, checks, _harness.out_path("BENCH_sketch.json"), smoke)


if __name__ == "__main__":
    raise SystemExit(main())
