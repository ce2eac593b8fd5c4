#!/usr/bin/env python3
"""Repository benchmark: serving and sweep workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` makes the same untraced pass, then a second pass in which
each layer's public functions are wrapped (``spans.py``); it reports the
per-layer metrics, the tracing overhead, and cross-checks the wrapped
call counts against the program's own counters.  Both modes replay a
sample of outputs through a reference path and exit with status 1 on any
mismatch or invalid run.  The last line of standard output is the JSON
result; the lines before it list every metric by name with its unit.

Workloads and metrics (names, units, bounds) are read from
``BENCHMARK.json`` at the repository root; ``catalog.py`` says what each
metric measures or should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from catalog import MOVES  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
#: name: unit
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
LATENCY = {name: PER_LAYER[name] for name in ("latency.p50_ms", "latency.p99_ms")}


def _source_id() -> dict:
    """The git commit when there is one, else a hash of the source tree."""
    out: dict = {}
    if (ROOT / ".git").exists():
        try:
            out["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    out["source_sha256"] = digest.hexdigest()
    return out


def _provenance(args) -> dict:
    import numpy

    affinity = sorted(os.sched_getaffinity(0))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        **_source_id(),
    }


def _child_env(work: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_TRACE", "REPRO_TRACE_SAMPLE", "REPRO_NATIVE_THREADS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE"] = "0"  # only the explicit per-run TrialCache dirs are used
    env["REPRO_CACHE_DIR"] = str(work / "default-cache")
    env["REPRO_NATIVE_BUILD_DIR"] = str(ROOT / "build")
    return env


def _build_kernels(env: dict) -> bool:
    """Compile the C kernels once, before any timed set-up."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from repro.rfid import _native; "
         "sys.exit(0 if _native.get_lib() is not None else 3)"],
        env=env, timeout=600,
    )
    return done.returncode == 0


def _metric_lines(values: dict, units: dict) -> list[str]:
    lines = []
    for name, unit in units.items():
        value = values.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<36} {shown:>14} {unit:<8} {MOVES.get(name, '')}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    env = _child_env(work)
    os.environ.update({k: env[k] for k in ("REPRO_CACHE", "REPRO_CACHE_DIR",
                                           "REPRO_NATIVE_BUILD_DIR")})
    sys.path.insert(0, str(ROOT / "src"))
    try:
        native = _build_kernels(env)
        if args.workload == "sweep_cold":
            import sweep

            result = sweep.run(args.seed, args.seconds, args.trace, env, work)
        else:
            import serve

            result = serve.run(args.workload, args.seed, args.seconds, args.trace, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    e2e = result["e2e"]
    latency = {"latency.p50_ms": e2e["p50_ms"], "latency.p99_ms": e2e["p99_ms"]}
    error_rate = result["failed"] / max(1, result["attempted"])
    valid = result["validity"]["valid"] and result["validity"].get(
        "traced_valid", {"valid": True})["valid"]
    correct = bool(result["correct"] and valid)
    report = {
        "provenance": {**_provenance(args), "native_kernels": native,
                       **result["provenance"]},
        "end_to_end": {**{k: e2e[k] for k in END_TO_END}, **latency,
                       "error_rate": error_rate},
        "validity": result["validity"],
        "correctness": result["correctness"],
        "cross_check": result.get("cross_check"),
        "layer_samples": result.get("layer_samples"),
        "details": result["details"],
    }
    print(json.dumps(report, indent=1, sort_keys=True, default=str))
    print(f"end-to-end ({args.workload}, untraced):")
    print("\n".join(_metric_lines(e2e, END_TO_END)))
    print("\n".join(_metric_lines(latency, LATENCY)))
    print(f"  {'error_rate':<36} {error_rate:>14.6g} ratio  "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    if args.trace:
        layer = {**result["layer"], **latency}
        print(f"per-layer ({args.workload}; latency from the untraced pass, "
              "the rest from the traced pass):")
        print("\n".join(_metric_lines(layer, PER_LAYER)))
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    bad = [n for n, m in metrics.items()
           if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
    if bad:
        correct = False
        for name in bad:
            metrics[name]["value"] = 0.0
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
