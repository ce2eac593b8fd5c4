"""The ``sweep_cold`` workload: cold offline sweeps of the figure engines.

Set-up is timed ``SETUPS`` times, each from a fresh process to the point
where the program is imported and its native kernels are loaded; the
last process runs the timed sweep (``sweep_main.py``).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import percentile_block

HERE = Path(__file__).resolve().parent
SETUPS = 3


def _one_pass(env: dict, work: Path, seed: int, seconds: float, trace: int, setups: int) -> dict:
    setup_times = []
    out = work / f"sweep-t{trace}.json"
    for index in range(setups):
        last = index == setups - 1
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "sweep_main.py"), "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--work", str(work / f"sweep-t{trace}"), "--out", str(out)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            ready = proc.stdout.readline().split()
            setup_times.append(time.perf_counter() - started)
            if len(ready) != 2 or ready[0] != "READY":
                raise RuntimeError(f"sweep process did not start: {ready}")
            proc.stdin.write("run\n" if last else "exit\n")
            proc.stdin.flush()
            proc.stdin.close()
            code = proc.wait(timeout=170)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if code != 0:
            raise RuntimeError(f"sweep process exited with {code}")
    result = json.loads(out.read_text())
    result["setup_s"] = setup_times
    result["native_threads"] = int(ready[1])
    return result


def _end_to_end(m: dict) -> dict:
    lat = percentile_block([1e3 * v for v in m["latencies"]])
    return {
        "setup_s": statistics.median(m["setup_s"]),
        "ops_per_s": statistics.median(done / wall for done, wall, _ in m["passes"]),
        "cpu_us_per_op": statistics.median(
            1e6 * cpu / max(1, done) for done, _, cpu in m["passes"]
        ),
        "peak_rss_mb": m["peak_rss_mb"],
        "p50_ms": lat["p50"],
        "p99_ms": lat["p99"],
    }, lat


def _details(m: dict, lat: dict) -> dict:
    keep = ("reps", "points", "trials", "failed_points", "failed_trials", "wall_s",
            "cpu_s", "passes", "setup_s", "native", "native_threads", "peak_rss_mb")
    out = {k: m[k] for k in keep}
    out["trial_latency_ms"] = lat
    return out


def run(seed: int, seconds: float, trace: int, env: dict, work: Path) -> dict:
    base = _one_pass(env, work, seed, seconds, 0, SETUPS)
    e2e, lat = _end_to_end(base)
    problems = []
    if not lat["p99_valid"]:
        problems.append("fewer than 10 trial samples beyond p99")
    correctness = {"checks": base["correctness"], "digest": base["digest"]}
    # A point that raised is a fault of the program, not a slow trial.
    ok = not base["correctness"]["mismatches"] and base["failed_points"] == 0
    result = {
        "e2e": e2e,
        "validity": {"valid": not problems, "problems": problems},
        "correctness": correctness,
        "details": {"untraced": _details(base, lat)},
        "attempted": base["trials"],
        "failed": base["failed_trials"],
        "provenance": {"setups": SETUPS, "max_workers": 1,
                       "native_threads": base["native_threads"]},
    }
    if trace:
        traced = _one_pass(env, work, seed, seconds, 1, 1)
        t_e2e, t_lat = _end_to_end(traced)
        correctness["traced_digest"] = traced["digest"]
        ok = (ok and traced["digest"] == base["digest"] and traced["failed_points"] == 0
              and not traced["correctness"]["mismatches"])
        layer = dict(traced["layer"])
        for name, value in e2e.items():
            other = t_e2e[name]
            layer[f"trace.overhead_pct.{name}"] = (
                100.0 * (other - value) / value if value and other is not None else 0.0
            )
        result["layer"] = layer
        result["cross_check"] = traced["cross_check"]
        result["details"]["traced"] = _details(traced, t_lat)
        result["details"]["traced_e2e"] = t_e2e
        ok = ok and not traced["cross_check"]["mismatches"]
    result["correct"] = ok
    return result
