"""Extension — synchronized multi-reader estimation (Sec. III-A model).

Two surfaces share this file:

* the pytest benchmark (``test_multireader``) regenerates the shape
  artifact — OR-merged union estimates match single-reader BFCE accuracy
  and wall-clock while the naive per-reader sum over-counts by exactly the
  overlap fraction;
* the script harness (``main``) compares the two multi-reader aggregation
  strategies head to head — one giant synchronized BFCE round over the
  union versus per-reader HLL sketches unioned at the coordinator — across
  reader counts (2…256) and population sizes, and writes
  ``BENCH_multireader.json`` at the repo root for ``collect.py``.  It
  checks that the sketch path is at least as fast as the synchronized
  round at the largest n (``multireader_sketch_speedup_min``) and that
  every relative error stays inside ``multireader_error_max``.

Run the harness as a script or module::

    PYTHONPATH=src python benchmarks/bench_multireader.py
    PYTHONPATH=src python benchmarks/bench_multireader.py --smoke

Knobs (environment variables, overridden by ``--smoke``):

* ``REPRO_BENCH_N``         reader-sweep population     (default 1_000_000)
* ``REPRO_BENCH_N_VALUES``  scale-sweep populations, comma-separated
                            (default ``1000000,10000000``; the paper-scale
                            run appends ``100000000``)
* ``REPRO_BENCH_OUT``       output path (default <repo>/BENCH_multireader.json)

The sweep numbers feed the decision matrix in DESIGN.md and the measured
table in EXPERIMENTS.md: the synchronized round's compute cost scales with
the union size (every reader hashes its audible tags each frame) while the
sketch path is one register pass per reader plus an O(R·m) union, so the
crossover is immediate and widens with n.
"""

from __future__ import annotations

import os
import time

import _harness  # first: puts src/ on sys.path
import numpy as np
from _harness import Check

from repro.obs.host import host_block
from repro.rfid.ids import uniform_ids
from repro.rfid.multireader import (
    CoverageMap,
    MultiReaderSystem,
    naive_sum_estimate,
    sketch_union_estimate,
)

N = 150_000
OVERLAP = 0.3

BASE_SEED = 2015
READER_SWEEP = (2, 8, 32, 256)
SCALE_READERS = 8


def _run(trials):
    ids = uniform_ids(N, seed=31)
    cov = CoverageMap.random_overlap(ids, 4, overlap=OVERLAP, seed=32)
    system = MultiReaderSystem(cov)
    coordinated = [system.estimate(seed=40 + t) for t in range(trials)]
    naive = [naive_sum_estimate(cov, seed=40 + t) for t in range(trials)]
    return coordinated, naive


def test_multireader(benchmark, trials):
    from conftest import run_once

    coordinated, naive = run_once(benchmark, _run, max(trials, 3))

    errs = [r.relative_error(N) for r in coordinated]
    assert float(np.mean(errs)) <= 0.05
    assert all(r.guarantee_met for r in coordinated)

    # Wall-clock stays single-reader constant.
    walls = [r.wallclock_seconds for r in coordinated]
    assert max(walls) < 0.21

    # Naive sum over-counts by ≈ the overlap fraction.
    naive_bias = float(np.mean(naive)) / N - 1.0
    assert abs(naive_bias - OVERLAP) < 0.08
    # Coordination beats naive by a wide margin.
    assert float(np.mean(errs)) < abs(naive_bias) / 3


# ----------------------------------------------------------------------
# script harness: sketch union vs one giant synchronized BFCE round
# ----------------------------------------------------------------------
def _compare_once(coverage: CoverageMap, seed: int) -> dict:
    """Both aggregation strategies on one coverage map; compute + air + error."""
    n_true = coverage.union_size

    t0 = time.perf_counter()
    sketch = sketch_union_estimate(coverage, seed=seed)
    sketch_compute = time.perf_counter() - t0

    t0 = time.perf_counter()
    sync = MultiReaderSystem(coverage).estimate(seed=seed)
    sync_compute = time.perf_counter() - t0

    return {
        "sketch": {
            "compute_seconds": round(sketch_compute, 4),
            "air_seconds": round(sketch.wallclock_seconds, 4),
            "relative_error": round(sketch.relative_error(n_true), 5),
        },
        "sync_bfce": {
            "compute_seconds": round(sync_compute, 4),
            "air_seconds": round(sync.wallclock_seconds, 4),
            "relative_error": round(sync.relative_error(n_true), 5),
        },
    }


def run_multireader_bench(
    *,
    n: int = 1_000_000,
    reader_counts: tuple[int, ...] = READER_SWEEP,
    scale_n_values: tuple[int, ...] = (1_000_000, 10_000_000),
    scale_readers: int = SCALE_READERS,
    overlap: float = OVERLAP,
) -> dict:
    """Sweep reader counts and populations; return the comparison report."""
    readers: dict[str, dict] = {}
    ids = uniform_ids(n, seed=BASE_SEED)
    for r in reader_counts:
        coverage = CoverageMap.random_overlap(
            ids, r, overlap=overlap, seed=BASE_SEED + r
        )
        readers[str(r)] = _compare_once(coverage, BASE_SEED + r)

    scale: dict[str, dict] = {}
    for scale_n in scale_n_values:
        scale_ids = ids if scale_n == n else uniform_ids(scale_n, seed=BASE_SEED)
        coverage = CoverageMap.random_overlap(
            scale_ids, scale_readers, overlap=overlap, seed=BASE_SEED + scale_n % 997
        )
        scale[str(scale_n)] = _compare_once(coverage, BASE_SEED + 7)

    first, last = str(reader_counts[0]), str(reader_counts[-1])
    largest = str(scale_n_values[-1])
    return {
        "benchmark": "multireader_sketch",
        "workload": {
            "n": n,
            "reader_counts": list(reader_counts),
            "scale_n_values": list(scale_n_values),
            "scale_readers": scale_readers,
            "overlap": overlap,
            "base_seed": BASE_SEED,
        },
        "host": host_block(),
        "readers": readers,
        "scale": scale,
        "gates": {
            # Sketch-path compute across the reader sweep: dominated by the
            # one register pass over the (fixed) union, so it must stay
            # near-flat from 2 to 256 readers.
            "sketch_compute_ratio_max_readers": round(
                readers[last]["sketch"]["compute_seconds"]
                / readers[first]["sketch"]["compute_seconds"],
                3,
            ),
            "sketch_speedup_at_max_n": round(
                scale[largest]["sync_bfce"]["compute_seconds"]
                / scale[largest]["sketch"]["compute_seconds"],
                2,
            ),
        },
    }


def main(argv: list[str] | None = None) -> int:
    smoke = _harness.parse_smoke(argv)
    if smoke:
        n = 50_000
        reader_counts = (2, 16)
        scale_n_values = (50_000,)
    else:
        n = _harness.env_int("REPRO_BENCH_N", 1_000_000)
        reader_counts = READER_SWEEP
        scale_n_values = tuple(
            int(v)
            for v in os.environ.get(
                "REPRO_BENCH_N_VALUES", "1000000,10000000"
            ).split(",")
        )

    report = run_multireader_bench(
        n=n, reader_counts=reader_counts, scale_n_values=scale_n_values
    )
    for r, row in report["readers"].items():
        sk, sy = row["sketch"], row["sync_bfce"]
        print(
            f"R={int(r):>3} n={report['workload']['n']:>11,}: "
            f"sketch {sk['compute_seconds']:7.3f}s/{sk['air_seconds']:.3f}s air "
            f"err {sk['relative_error']:.4f}  |  "
            f"sync BFCE {sy['compute_seconds']:7.3f}s/{sy['air_seconds']:.3f}s air "
            f"err {sy['relative_error']:.4f}"
        )
    for scale_n, row in report["scale"].items():
        sk, sy = row["sketch"], row["sync_bfce"]
        print(
            f"R={report['workload']['scale_readers']:>3} n={int(scale_n):>11,}: "
            f"sketch {sk['compute_seconds']:7.3f}s  "
            f"sync BFCE {sy['compute_seconds']:7.3f}s  "
            f"speedup {sy['compute_seconds'] / sk['compute_seconds']:.1f}x"
        )
    gates = report["gates"]
    print(
        f"sketch compute ratio {reader_counts[0]}->{reader_counts[-1]} readers: "
        f"{gates['sketch_compute_ratio_max_readers']:.2f}x"
    )

    errors = [
        row[kind]["relative_error"]
        for rows in (report["readers"], report["scale"])
        for row in rows.values()
        for kind in ("sketch", "sync_bfce")
    ]
    checks = [
        Check(
            "multireader.sketch_speedup_at_max_n",
            gates["sketch_speedup_at_max_n"],
            ">=",
            floor="multireader_sketch_speedup_min",
        ),
        Check(
            "multireader.error_max",
            max(errors),
            "<=",
            floor="multireader_error_max",
        ),
    ]
    return _harness.finish(
        report, checks, _harness.out_path("BENCH_multireader.json"), smoke
    )


if __name__ == "__main__":
    raise SystemExit(main())
