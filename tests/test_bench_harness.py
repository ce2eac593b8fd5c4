"""The shared perf-harness module (benchmarks/_harness.py) and the floor table."""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"

FLOORS = {
    "x_min": {"full": 2.0, "smoke": 1.0},
    "x_full_only_min": {"full": 2.0},
}


@pytest.fixture(scope="module")
def harness():
    # benchmarks/ is not a package: load the module from its file path, the
    # way tests/test_bench_collect.py loads collect.py.
    spec = importlib.util.spec_from_file_location(
        "bench_harness", _BENCH_DIR / "_harness.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve types through it
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.fixture
def two_cores(harness, monkeypatch):
    monkeypatch.setattr(harness, "affinity_cpu_count", lambda: 2)


def _one(harness, check, *, smoke=False):
    (record,) = harness.evaluate([check], smoke=smoke, floors=FLOORS)
    return record


class TestEvaluate:
    def test_pass_fail_and_skip_each_carry_a_reason(self, harness, two_cores):
        Check = harness.Check
        passed = _one(harness, Check("a", 3.0, ">=", floor="x_min"))
        failed = _one(harness, Check("b", 1.5, ">=", floor="x_min"))
        skipped = _one(
            harness, Check("c", 3.0, ">=", floor="x_full_only_min"), smoke=True
        )
        assert [r["status"] for r in (passed, failed, skipped)] == [
            "pass",
            "fail",
            "skipped",
        ]
        assert all(r["reason"] for r in (passed, failed, skipped))
        assert failed == {
            "name": "b",
            "value": 1.5,
            "op": ">=",
            "threshold": 2.0,
            "floor": "x_min",
            "status": "fail",
            "reason": "1.5 >= 2.0 does not hold",
        }

    def test_smoke_uses_the_smoke_value(self, harness, two_cores):
        record = _one(harness, harness.Check("a", 1.5, ">=", floor="x_min"), smoke=True)
        assert record["threshold"] == 1.0
        assert record["status"] == "pass"

    def test_missing_smoke_threshold_is_skipped(self, harness, two_cores):
        check = harness.Check("a", 0.0, ">=", floor="x_full_only_min")
        record = _one(harness, check, smoke=True)
        assert record["status"] == "skipped"
        assert record["reason"] == "no smoke threshold"
        assert record["threshold"] is None
        # The same check at full scale is evaluated, and here fails.
        assert _one(harness, check)["status"] == "fail"

    def test_multicore_check_skips_below_two_cores(self, harness, monkeypatch):
        check = harness.Check("a", 0.5, ">=", floor="x_min", multicore=True)
        monkeypatch.setattr(harness, "affinity_cpu_count", lambda: 1)
        record = _one(harness, check)
        assert record["status"] == "skipped"
        assert record["reason"] == "host affinity exposes 1 core(s); need ≥ 2"
        monkeypatch.setattr(harness, "affinity_cpu_count", lambda: 2)
        assert _one(harness, check)["status"] == "fail"

    def test_exact_check_runs_at_every_scale(self, harness, monkeypatch):
        monkeypatch.setattr(harness, "affinity_cpu_count", lambda: 1)
        check = harness.Check("drift", 0.25, "==", expect=0.0)
        for smoke in (False, True):
            record = _one(harness, check, smoke=smoke)
            assert record["status"] == "fail"
            assert record["floor"] is None
            assert record["threshold"] == 0.0

    def test_unmeasured_value_fails(self, harness, two_cores):
        record = _one(harness, harness.Check("a", None, ">=", floor="x_min"))
        assert record["status"] == "fail"
        assert record["reason"] == "not measured"


class TestFinish:
    def test_writes_checks_and_returns_one_on_any_fail(
        self, harness, tmp_path, capsys
    ):
        out = tmp_path / "BENCH_x.json"
        checks = [
            harness.Check("ok", 0, "==", expect=0),
            harness.Check("bad", 3, "==", expect=0),
        ]
        assert harness.finish({"benchmark": "x"}, checks, out, smoke=True) == 1
        written = json.loads(out.read_text())
        assert written["benchmark"] == "x"
        assert [c["status"] for c in written["checks"]] == ["pass", "fail"]
        lines = capsys.readouterr().out.splitlines()
        assert "PASS: ok: 0 == 0" in lines
        assert "FAIL: bad: 3 == 0 does not hold" in lines

    def test_all_passing_returns_zero(self, harness, tmp_path):
        out = tmp_path / "BENCH_x.json"
        checks = [harness.Check("ok", True, "==", expect=True)]
        assert harness.finish({}, checks, out, smoke=False) == 0
        assert json.loads(out.read_text())["checks"][0]["status"] == "pass"


class TestCommandLine:
    def test_smoke_flag(self, harness):
        assert harness.parse_smoke(["--smoke"]) is True
        assert harness.parse_smoke([]) is False

    @pytest.mark.parametrize("argv", [["--bogus"], ["--check-floor"], ["--smo"]])
    def test_unknown_argument_exits_two(self, harness, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            harness.parse_smoke(argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestHelpers:
    def test_time_best_of_returns_last_result(self, harness):
        calls = []
        seconds, result = harness.time_best_of(lambda: calls.append(1) or len(calls), 3)
        assert result == 3
        assert seconds >= 0.0

    def test_pinned_threads_restores_the_environment(self, harness, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_THREADS", raising=False)
        with harness.pinned_threads(1):
            assert os.environ["REPRO_NATIVE_THREADS"] == "1"
        assert "REPRO_NATIVE_THREADS" not in os.environ
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "3")
        with harness.pinned_threads(2):
            assert os.environ["REPRO_NATIVE_THREADS"] == "2"
        assert os.environ["REPRO_NATIVE_THREADS"] == "3"


def _named_floor_keys() -> set[str]:
    """Every ``floor="..."`` keyword the harness scripts pass."""
    keys = set()
    for path in _BENCH_DIR.glob("bench_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.keyword) and node.arg == "floor":
                assert isinstance(node.value, ast.Constant), f"{path.name}: {node}"
                keys.add(node.value.value)
    return keys


class TestFloorTable:
    def test_every_floor_is_named_by_a_check_and_vice_versa(self, harness):
        floors = harness.load_floors()
        assert set(floors) == _named_floor_keys()

    def test_every_floor_has_a_full_value(self, harness):
        for key, entry in harness.load_floors().items():
            assert set(entry) <= {"full", "smoke"}, key
            assert isinstance(entry["full"], float), key
