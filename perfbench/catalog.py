"""What each metric of ``BENCHMARK.json`` measures or should move.

``BENCHMARK.json`` at the repository root holds the workloads and every
metric's unit, direction and bound; it has no field for this text, which
is written down before any change is measured (choosing-metrics §3).
For an end-to-end metric it says what is measured; for a per-layer metric
it names the end-to-end metric and workload a change to that layer should
move.  An *op* is a request on the serving workloads and a trial on
``sweep_cold``.  Per-layer figures are taken from the traced pass's timed
window; a layer a workload never calls reads 0 there.

``latency.p50_ms``/``latency.p99_ms`` are what a user of the service
sees, but on a virtualised 2-vCPU host their run-to-run spread (warm p99
from 1.2 to 11 ms over ten seeds) is set by the host's scheduling
delays, far beyond any allowed bound, so they are reported in every run
and listed with the per-layer metrics, without a bound.
"""

PER_GRID_PASS = "ops_per_s on sweep_cold (per grid pass)"

MOVES = {
    "setup_s": "fresh process to first timed op, median of several set-ups",
    "ops_per_s": "serve: closed-loop completed requests/s (capacity_rps); "
                 "sweep: trials/s (trials_per_s); median over slices/passes",
    "cpu_us_per_op": "serve: server utime+stime per completed request in the "
                     "capacity phase; sweep: process_time per trial; median "
                     "over slices/passes",
    "peak_rss_mb": "peak resident set of the server / sweep process",
    "latency.p50_ms": "serve: open-loop latency from due time over all samples, "
                      "failures counted as over any limit; sweep: trial latency "
                      "(wall time of the point that computed it)",
    "latency.p99_ms": "as latency.p50_ms, 99th percentile (SLO: 50 ms)",
    "protocol.parse_us": "cpu_us_per_op, ops_per_s on serve_warm",
    "protocol.encode_us": "cpu_us_per_op, ops_per_s on serve_warm",
    "admission.wait_p50_us": "latency.p99_ms on serve_cold",
    "admission.wait_p99_us": "latency.p99_ms on serve_cold",
    "zones.group_key_us": "cpu_us_per_op, latency.p50_ms on serve_warm",
    "zones.track_us": "cpu_us_per_op, latency.p50_ms on serve_warm",
    "coalescer.estimate_p50_us": "latency.p50_ms on serve_warm",
    "coalescer.estimate_p99_us": "latency.p99_ms on serve_cold",
    "coalescer.wait_us": "latency.p50_ms on serve_cold (median estimate time "
                         "outside its engine call)",
    "coalescer.memory_hit_ratio": "stays 1 on serve_warm, 0 on serve_cold",
    "coalescer.reqs_per_engine_call": "ops_per_s on serve_cold",
    "server.loop_cpu_us_per_req": "ops_per_s on serve_warm",
    "server.executor_cpu_us_per_req": "ops_per_s on serve_cold",
    "sweep.inline_ms": "ops_per_s on serve_cold",
    "sweep.cache_load_miss_us": "latency.p99_ms on serve_cold; ops_per_s on sweep_cold",
    "sweep.cache_store_us": "latency.p99_ms on serve_cold; ops_per_s on sweep_cold",
    "sweep.run_self_s": PER_GRID_PASS,
    "engine.analytic_ms": "ops_per_s on serve_cold",
    "engine.analytic_trials_per_call": "ops_per_s on serve_cold",
    "engine.batched_self_s": PER_GRID_PASS,
    "engine.kernel_share": "ops_per_s on sweep_cold",
    "baselines.lof_self_s": PER_GRID_PASS,
    "baselines.zoe_self_s": PER_GRID_PASS,
    "baselines.src_self_s": PER_GRID_PASS,
    "workloads.population_s": "ops_per_s on sweep_cold (misses, per grid pass)",
    "multireader.coverage_s": PER_GRID_PASS,
    "multireader.union_self_s": PER_GRID_PASS,
    "sketch.registers_s": PER_GRID_PASS,
    "obs.writes_per_req": "cpu_us_per_op, ops_per_s on serve_warm",
    "obs.write_us": "cpu_us_per_op, ops_per_s on serve_warm",
    "obs.evaluate_ms": "latency.p99_ms on serve_warm",
    "loadgen.lag_p99_ms": "validity only (the generator's own lateness)",
}
for _k in ("bfce_counts", "analytic_scatter", "occupancy", "aloha_empty", "hll_update",
           "hll_merge"):
    _moves = "ops_per_s on serve_cold" if _k == "analytic_scatter" else "ops_per_s on sweep_cold"
    MOVES[f"kernel.{_k}.calls"] = _moves + " (per grid pass on sweep_cold, per request on serving)"
    MOVES[f"kernel.{_k}.s"] = _moves + " (per grid pass on sweep_cold, per request on serving)"
    MOVES[f"kernel.{_k}.threads"] = _moves + " (CPU/wall while running)"
MOVES["kernel.bfce_counts.events"] = (
    "ops_per_s on sweep_cold (computed from arguments, per grid pass)")
MOVES["kernel.hll_update.ids"] = "ops_per_s on sweep_cold (computed from arguments, per grid pass)"
for _name in ("setup_s", "ops_per_s", "cpu_us_per_op", "peak_rss_mb", "p50_ms", "p99_ms"):
    MOVES[f"trace.overhead_pct.{_name}"] = "tracing cost on this workload"
