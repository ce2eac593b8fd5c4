"""The benchmark trajectory collector (benchmarks/collect.py)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_COLLECT_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "collect.py"


@pytest.fixture(scope="module")
def collect():
    # benchmarks/ is not a package and "collect" is too generic a module
    # name to register globally — load it from its file path instead.
    spec = importlib.util.spec_from_file_location("bench_collect", _COLLECT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_engine_report(directory: Path) -> None:
    (directory / "BENCH_engine.json").write_text(
        json.dumps(
            {
                "benchmark": "engine",
                "workload": {"n": 1000, "trials": 2},
                "engines": {
                    "serial": {"speedup_vs_serial": 1.0, "max_abs_dn_hat_vs_serial": 0.0},
                    "batched": {"speedup_vs_serial": 4.5, "max_abs_dn_hat_vs_serial": 0.0},
                },
                "host": {
                    "python": "3.11.0",
                    "machine": "x86_64",
                    "cpus": 8,
                    "cpus_affinity": 4,
                    "native_threads": 4,
                    "native_threads_env": None,
                },
                "multicore": {
                    "cpus_visible": 4,
                    "threads": 4,
                    "speedup_threaded_vs_1t": 2.1,
                },
            }
        )
    )


def _write_scale_report(directory: Path) -> None:
    (directory / "BENCH_scale.json").write_text(
        json.dumps(
            {
                "benchmark": "scale",
                "workload": {"w": 131072, "trials": 5},
                "gates": {"speedup_vs_event": 250.0, "flatness_ratio": 1.6},
                "analytic": {
                    "100000": {"error_max": 0.03},
                    "1000000": {"error_max": 0.02},
                },
            }
        )
    )


def _write_dynamics_report(directory: Path) -> None:
    (directory / "BENCH_dynamics.json").write_text(
        json.dumps(
            {
                "benchmark": "dynamics",
                "workload": {"initial_size": 20_000, "epochs": 120},
                "passes": {"warm": {"hit_rate": 1.0}},
                "payload_mismatches": 0,
                "gates": {
                    "ekf_rmse_airtime": 2899.6,
                    "independent_rmse_airtime": 9171.5,
                    "advantage": 3.16,
                    "scale_wall_seconds": 3.82,
                    "scale_budget_seconds": 60.0,
                },
            }
        )
    )


def _write_service_report(directory: Path) -> None:
    (directory / "BENCH_service.json").write_text(
        json.dumps(
            {
                "benchmark": "service_throughput",
                "workload": {"zones": 256, "n_max": 10**8, "connections": 16},
                "equivalence": {"pairs": 12, "max_abs_dn_hat": 0.0},
                "cold": {
                    "rps": 696.8,
                    "p99_ms": 223.38,
                    "shed": 0,
                    "requests_per_engine_call": 4.7,
                },
                "warm": {"rps": 12401.4, "p99_ms": 8.59, "shed": 0},
            }
        )
    )


def _write_sketch_report(directory: Path) -> None:
    (directory / "BENCH_sketch.json").write_text(
        json.dumps(
            {
                "benchmark": "sketch",
                "workload": {"n": 10**6, "p": 12, "flatness_p": 10},
                "union": {
                    "p10": {"flatness_ratio": 1.55},
                    "p12": {"flatness_ratio": 2.73},
                },
                "gates": {
                    "native_speedup": 24.2,
                    "union_flatness_ratio": 1.55,
                    "error_bound_factor": 0.96,
                    "identity_mismatches": 0,
                },
            }
        )
    )


def _write_multireader_report(directory: Path) -> None:
    (directory / "BENCH_multireader.json").write_text(
        json.dumps(
            {
                "benchmark": "multireader_sketch",
                "workload": {"n": 10**6, "reader_counts": [2, 256]},
                "gates": {
                    "sketch_compute_ratio_max_readers": 0.83,
                    "sketch_speedup_at_max_n": 3.62,
                },
            }
        )
    )


class TestCollectTrajectory:
    def test_merges_present_reports_and_notes_missing(self, collect, tmp_path):
        _write_engine_report(tmp_path)
        _write_scale_report(tmp_path)
        trajectory = collect.collect_trajectory(tmp_path)
        assert set(trajectory["benchmarks"]) == {"engine", "scale"}
        assert sorted(trajectory["missing"]) == [
            "BENCH_baselines.json",
            "BENCH_dynamics.json",
            "BENCH_multireader.json",
            "BENCH_service.json",
            "BENCH_sketch.json",
            "BENCH_sweep.json",
        ]
        engine = trajectory["benchmarks"]["engine"]
        assert engine["headline_speedup"] == 4.5
        assert engine["drift"] == 0.0
        assert engine["source"] == "BENCH_engine.json"

    def test_engine_summary_folds_host_and_multicore(self, collect, tmp_path):
        _write_engine_report(tmp_path)
        engine = collect.collect_trajectory(tmp_path)["benchmarks"]["engine"]
        # Only the multicore-relevant host fields survive the fold — not the
        # python/machine strings.
        assert engine["host"] == {
            "cpus": 8,
            "cpus_affinity": 4,
            "native_threads": 4,
            "native_threads_env": None,
        }
        assert engine["multicore"]["speedup_threaded_vs_1t"] == 2.1

    def test_reports_without_host_block_still_fold(self, collect, tmp_path):
        _write_scale_report(tmp_path)
        scale = collect.collect_trajectory(tmp_path)["benchmarks"]["scale"]
        assert "host" not in scale

    def test_scale_summary_is_distributional(self, collect, tmp_path):
        _write_scale_report(tmp_path)
        scale = collect.collect_trajectory(tmp_path)["benchmarks"]["scale"]
        # The analytic engine has no bit-identity reference: drift is None
        # and the accuracy envelope is carried instead.
        assert scale["drift"] is None
        assert scale["error_max"] == 0.03
        assert scale["flatness_ratio"] == 1.6

    def test_dynamics_summary_carries_cache_and_scale_gates(self, collect, tmp_path):
        _write_dynamics_report(tmp_path)
        dynamics = collect.collect_trajectory(tmp_path)["benchmarks"]["dynamics"]
        assert dynamics["headline_speedup"] == 3.16
        # "Drift" for the tracking layer is warm-vs-cold payload mismatches.
        assert dynamics["drift"] == 0
        assert dynamics["warm_hit_rate"] == 1.0
        assert dynamics["scale_wall_seconds"] == 3.82
        assert dynamics["source"] == "BENCH_dynamics.json"

    def test_service_summary_carries_slo_and_coalescing(self, collect, tmp_path):
        _write_service_report(tmp_path)
        service = collect.collect_trajectory(tmp_path)["benchmarks"]["service"]
        assert service["headline_speedup"] == pytest.approx(17.8, abs=0.1)
        # "Drift" for the service is wire-vs-direct replay disagreement.
        assert service["drift"] == 0.0
        assert service["warm_rps"] == 12401.4
        assert service["warm_p99_ms"] == 8.59
        assert service["cold_requests_per_engine_call"] == 4.7
        assert service["shed"] == 0
        assert service["source"] == "BENCH_service.json"

    def test_sketch_summary_carries_gates(self, collect, tmp_path):
        _write_sketch_report(tmp_path)
        sketch = collect.collect_trajectory(tmp_path)["benchmarks"]["sketch"]
        assert sketch["headline_speedup"] == 24.2
        # "Drift" for the sketch layer is native-vs-NumPy register mismatches.
        assert sketch["drift"] == 0
        # The gated flatness ratio is the pinned p=10 one, not p=12.
        assert sketch["union_flatness_ratio"] == 1.55
        assert sketch["error_bound_factor"] == 0.96
        assert sketch["source"] == "BENCH_sketch.json"

    def test_multireader_summary_carries_gates(self, collect, tmp_path):
        _write_multireader_report(tmp_path)
        mr = collect.collect_trajectory(tmp_path)["benchmarks"]["multireader"]
        assert mr["headline_speedup"] == 3.62
        # No bit-identity reference: sketch and sync BFCE are different
        # estimators, so there is nothing to drift against.
        assert mr["drift"] is None
        assert mr["sketch_compute_ratio_max_readers"] == 0.83
        assert mr["source"] == "BENCH_multireader.json"

    def test_check_verdicts_fold_into_counts_and_non_passes(self, collect, tmp_path):
        _write_engine_report(tmp_path)
        path = tmp_path / "BENCH_engine.json"
        report = json.loads(path.read_text())
        report["checks"] = [
            {"name": "engine.drift", "status": "pass", "reason": "0.0 == 0.0"},
            {
                "name": "engine.batched_speedup",
                "status": "skipped",
                "reason": "no smoke threshold",
            },
            {
                "name": "engine.threaded_speedup",
                "status": "fail",
                "reason": "1.11 >= 1.6 does not hold",
            },
        ]
        path.write_text(json.dumps(report))
        engine = collect.collect_trajectory(tmp_path)["benchmarks"]["engine"]
        assert engine["checks"] == {
            "pass": 1,
            "fail": 1,
            "skipped": 1,
            "not_passed": [
                {
                    "name": "engine.batched_speedup",
                    "status": "skipped",
                    "reason": "no smoke threshold",
                },
                {
                    "name": "engine.threaded_speedup",
                    "status": "fail",
                    "reason": "1.11 >= 1.6 does not hold",
                },
            ],
        }

    def test_reports_without_checks_pass_through_as_null(self, collect, tmp_path):
        _write_scale_report(tmp_path)
        scale = collect.collect_trajectory(tmp_path)["benchmarks"]["scale"]
        assert scale["checks"] is None

    def test_empty_directory_collects_nothing(self, collect, tmp_path):
        trajectory = collect.collect_trajectory(tmp_path)
        assert trajectory["benchmarks"] == {}
        assert len(trajectory["missing"]) == 8


class TestMain:
    def test_writes_trajectory_and_exits_zero(self, collect, tmp_path, monkeypatch, capsys):
        _write_engine_report(tmp_path)
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        assert collect.main([]) == 0
        written = json.loads((tmp_path / "BENCH_trajectory.json").read_text())
        assert written["benchmarks"]["engine"]["headline_speedup"] == 4.5
        out = capsys.readouterr().out
        assert "skipped: BENCH_scale.json not found" in out

    def test_no_reports_is_a_failure(self, collect, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
        assert collect.main([]) == 1

    def test_unknown_arguments_exit_two(self, collect):
        assert collect.main(["--bogus"]) == 2
