"""Merge the per-harness BENCH_*.json reports into one trajectory file.

Each perf harness writes its own report at the repo root — engine
throughput (``BENCH_engine.json``), baseline engines
(``BENCH_baselines.json``), the sweep cache (``BENCH_sweep.json``), the
analytic scale sweep (``BENCH_scale.json``), dynamic tracking
(``BENCH_dynamics.json``), the estimation service
(``BENCH_service.json``), the HLL sketch layer (``BENCH_sketch.json``)
and the multi-reader aggregation comparison (``BENCH_multireader.json``).  CI uploads them individually,
but trend tracking wants one artifact: this script collapses whichever
reports exist into ``BENCH_trajectory.json``, keeping for each benchmark
its headline speedup, its drift against the bit-identical reference (absent
for the analytic engine, whose contract is distributional — the accuracy
envelope is recorded instead), the workload it was measured on, and its
check verdicts: pass/fail/skipped counts plus the name, status and reason
of every check that did not pass (``checks: null`` for a report written
before harnesses recorded checks).

Run as a script::

    PYTHONPATH=src python benchmarks/collect.py

Missing reports are skipped with a note, not an error, so the collector can
run after any subset of the harnesses.  ``REPRO_BENCH_DIR`` relocates where
reports are read from and the trajectory is written (default: repo root).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent

__all__ = ["collect_trajectory", "main"]


def _host_summary(report: dict) -> dict | None:
    """The multicore-relevant slice of a report's host block.

    Older BENCH files predate the extended host block; whatever fields they
    do carry pass through so trajectories remain comparable across report
    generations.
    """
    host = report.get("host")
    if not isinstance(host, dict):
        return None
    return {
        key: host[key]
        for key in ("cpus", "cpus_affinity", "native_threads", "native_threads_env")
        if key in host
    }


def _checks_summary(report: dict) -> dict | None:
    """Verdict counts and the non-passing checks of a report's ``checks`` list."""
    checks = report.get("checks")
    if checks is None:
        return None
    statuses = [check["status"] for check in checks]
    return {
        **{status: statuses.count(status) for status in ("pass", "fail", "skipped")},
        "not_passed": [
            {key: check[key] for key in ("name", "status", "reason")}
            for check in checks
            if check["status"] != "pass"
        ],
    }


def _summarise_engine(report: dict) -> dict:
    engines = report["engines"]
    summary = {
        "headline_speedup": engines["batched"]["speedup_vs_serial"],
        "headline": "batched vs serial BFCE trials",
        "drift": max(e["max_abs_dn_hat_vs_serial"] for e in engines.values()),
        "workload": report["workload"],
    }
    if "multicore" in report:
        summary["multicore"] = report["multicore"]
    return summary


def _summarise_baselines(report: dict) -> dict:
    drift = max(
        engine[key]
        for baseline in report["baselines"].values()
        for engine in (baseline["serial"], baseline["batched"])
        for key in ("max_abs_dn_hat_vs_serial", "max_abs_dseconds_vs_serial")
    )
    return {
        "headline_speedup": report["aggregate"]["speedup"],
        "headline": "batched vs serial LOF/ZOE/SRC trials",
        "drift": drift,
        "workload": report["workload"],
    }


def _summarise_sweep(report: dict) -> dict:
    return {
        "headline_speedup": report["passes"]["warm"]["speedup_vs_serial"],
        "headline": "warm cache vs serial sweep",
        "cold_speedup": report["passes"]["cold"]["speedup_vs_serial"],
        "drift": max(
            report["drift"]["max_abs_dn_hat"], report["drift"]["max_abs_dseconds"]
        ),
        "workload": report["workload"],
    }


def _summarise_dynamics(report: dict) -> dict:
    gates = report["gates"]
    return {
        "headline_speedup": gates["advantage"],
        "headline": "EKF vs independent rounds on RMSE x airtime",
        "drift": report["payload_mismatches"],  # warm-vs-cold payload mismatches
        "warm_hit_rate": report["passes"]["warm"]["hit_rate"],
        "scale_wall_seconds": gates["scale_wall_seconds"],
        "workload": report["workload"],
    }


def _summarise_scale(report: dict) -> dict:
    return {
        "headline_speedup": report["gates"]["speedup_vs_event"],
        "headline": "analytic vs batched event engine per trial",
        "flatness_ratio": report["gates"]["flatness_ratio"],
        "drift": None,  # exact-in-distribution: no bit-identity reference
        "error_max": max(s["error_max"] for s in report["analytic"].values()),
        "workload": report["workload"],
    }


def _summarise_service(report: dict) -> dict:
    warm, cold = report["warm"], report["cold"]
    telemetry = report.get("telemetry") or {}
    spike = telemetry.get("slo_spike") or {}
    return {
        "headline_speedup": round(warm["rps"] / cold["rps"], 2) if cold["rps"] else None,
        "headline": "warm-cache vs cold serving throughput",
        "drift": report["equivalence"]["max_abs_dn_hat"],
        "warm_rps": round(warm["rps"], 1),
        "warm_p99_ms": round(warm["p99_ms"], 3),
        "cold_requests_per_engine_call": cold["requests_per_engine_call"],
        "shed": warm["shed"] + cold["shed"],
        "trace_overhead_pct": telemetry.get("trace_overhead_pct"),
        "reconcile_exact": telemetry.get("reconcile_exact"),
        "slo_alert_seconds": spike.get("alert_seconds"),
        "workload": report["workload"],
    }


def _summarise_sketch(report: dict) -> dict:
    flat_key = f"p{report['workload']['flatness_p']}"
    return {
        "headline_speedup": report["gates"]["native_speedup"],
        "headline": "fused native HLL register kernel vs NumPy update",
        "drift": report["gates"]["identity_mismatches"],  # registers vs NumPy ref
        "union_flatness_ratio": report["union"][flat_key]["flatness_ratio"],
        "error_bound_factor": report["gates"]["error_bound_factor"],
        "workload": report["workload"],
    }


def _summarise_multireader(report: dict) -> dict:
    return {
        "headline_speedup": report["gates"]["sketch_speedup_at_max_n"],
        "headline": "sketch union vs one synchronized BFCE round (compute)",
        "drift": None,  # two different estimators: no bit-identity reference
        "sketch_compute_ratio_max_readers": report["gates"][
            "sketch_compute_ratio_max_readers"
        ],
        "workload": report["workload"],
    }


_SUMMARISERS = {
    "BENCH_engine.json": ("engine", _summarise_engine),
    "BENCH_baselines.json": ("baselines", _summarise_baselines),
    "BENCH_sweep.json": ("sweep", _summarise_sweep),
    "BENCH_scale.json": ("scale", _summarise_scale),
    "BENCH_dynamics.json": ("dynamics", _summarise_dynamics),
    "BENCH_service.json": ("service", _summarise_service),
    "BENCH_sketch.json": ("sketch", _summarise_sketch),
    "BENCH_multireader.json": ("multireader", _summarise_multireader),
}


def _collect_obs(directory: Path) -> dict[str, dict]:
    """Summarise any ``*.trace.jsonl`` structured traces found in ``directory``.

    Harnesses run with ``REPRO_TRACE`` drop span traces next to their BENCH
    reports; each is folded into the trajectory as per-phase air time plus
    the engine/fallback counters.  Needs :mod:`repro.obs` importable
    (``PYTHONPATH=src``, as the harnesses already require); silently skipped
    otherwise so the collector stays standalone.
    """
    traces = sorted(directory.glob("*.trace.jsonl"))
    if not traces:
        return {}
    try:
        from repro.obs import report as obs_report
    except ImportError:
        return {}
    summaries: dict[str, dict] = {}
    for path in traces:
        try:
            summary = obs_report.summarise(path)
        except (OSError, ValueError) as exc:
            summaries[path.name] = {"error": str(exc)}
            continue
        summaries[path.name] = {
            "trials": summary["trials"],
            "engines": summary["engines"],
            "air_seconds_total": summary["air_seconds_total"],
            "phase_air_seconds": summary["phase_air_seconds"],
            "engine_fallbacks": summary["engine_fallbacks"],
            "ledger_crosscheck_mismatches": summary[
                "ledger_crosscheck_mismatches"
            ],
            "native_threads_used": summary.get("native_threads_used", 0),
        }
    return summaries


def collect_trajectory(directory: Path | str | None = None) -> dict:
    """Read whichever BENCH reports exist under ``directory`` and merge them."""
    directory = Path(directory) if directory is not None else _REPO_ROOT
    benchmarks: dict[str, dict] = {}
    missing: list[str] = []
    for filename, (key, summarise) in _SUMMARISERS.items():
        path = directory / filename
        try:
            report = json.loads(path.read_text())
        except FileNotFoundError:
            missing.append(filename)
            continue
        summary = summarise(report)
        summary["source"] = filename
        summary["benchmark"] = report["benchmark"]
        summary["checks"] = _checks_summary(report)
        host = _host_summary(report)
        if host is not None:
            summary["host"] = host
        benchmarks[key] = summary
    return {
        "benchmark": "trajectory",
        "benchmarks": benchmarks,
        "obs": _collect_obs(directory),
        "missing": missing,
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        print(f"unknown argument(s): {' '.join(argv)}", file=sys.stderr)
        print("usage: collect.py   (env: REPRO_BENCH_DIR)", file=sys.stderr)
        return 2
    directory = Path(os.environ.get("REPRO_BENCH_DIR", _REPO_ROOT))
    trajectory = collect_trajectory(directory)
    out = directory / "BENCH_trajectory.json"
    out.write_text(json.dumps(trajectory, indent=2) + "\n")

    for key, summary in trajectory["benchmarks"].items():
        drift = summary.get("drift")
        drift_txt = "n/a (distributional)" if drift is None else str(drift)
        checks = summary["checks"]
        checks_txt = (
            "no checks recorded"
            if checks is None
            else f"checks {checks['pass']} pass / {checks['fail']} fail / "
            f"{checks['skipped']} skipped"
        )
        print(
            f"{key:>10}: {summary['headline_speedup']:8.1f}x  "
            f"({summary['headline']}; drift {drift_txt}; {checks_txt})"
        )
    for name, obs in trajectory["obs"].items():
        if "error" in obs:
            print(f"{name:>10}: unreadable trace ({obs['error']})")
            continue
        print(
            f"{name:>10}: {obs['trials']} traced trials, "
            f"{obs['air_seconds_total']:.3f} s air time, "
            f"{obs['engine_fallbacks']} fallback(s)"
        )
    for filename in trajectory["missing"]:
        print(f"  skipped: {filename} not found")
    print(f"wrote {out}")
    if not trajectory["benchmarks"]:
        print("FAIL: no BENCH reports found")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
