"""Span tracer unit tests: nesting, JSONL round-trip, sink routing."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.obs import trace
from repro.obs.report import load_trace
from repro.obs.trace import NULL_SPAN, TRACE_ENV, TRACE_ROOT_ENV


def _read_records(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ----------------------------------------------------------------------
# disabled behaviour
# ----------------------------------------------------------------------
def test_disabled_span_is_shared_null_singleton():
    assert not trace.enabled()
    sp = trace.span("trial", engine="serial")
    assert sp is NULL_SPAN
    assert not sp  # falsy: `if sp:` guards never fire
    with sp as inner:
        assert inner is NULL_SPAN
        inner.set(n_hat=1.0)  # silently dropped


def test_disabled_event_and_flush_are_noops(tmp_path):
    trace.event("trial", n_hat=1.0)
    trace.flush()
    assert trace.merge_worker_traces() == 0
    assert list(tmp_path.iterdir()) == []


def test_disabled_span_call_is_cheap():
    # Guard the "near-zero cost when off" contract: one env-cached lookup,
    # one `is None` test, no allocation.  ~0.1 µs/call in practice; the
    # 2 µs/call bound only catches accidental per-call work (file probes,
    # allocation, snapshotting), not machine noise.
    n = 200_000
    t0 = time.perf_counter()
    for _ in range(n):
        trace.span("trial")
    per_call = (time.perf_counter() - t0) / n
    assert per_call < 2e-6


# ----------------------------------------------------------------------
# enabled behaviour
# ----------------------------------------------------------------------
def test_span_nesting_parent_ids_and_depth(tmp_path):
    path = tmp_path / "t.jsonl"
    trace.configure(path)
    with trace.span("trial", engine="serial") as t:
        with trace.span("probe") as p:
            with trace.span("frame", slots=32):
                pass
        with trace.span("rough"):
            pass
        t.set(n_hat=123.0)
    assert p.attrs == {}

    spans = {r["name"]: r for r in _read_records(path) if r["t"] == "span"}
    trial, probe, frame, rough = (
        spans["trial"], spans["probe"], spans["frame"], spans["rough"],
    )
    assert trial["parent"] is None and trial["depth"] == 0
    assert probe["parent"] == trial["id"] and probe["depth"] == 1
    assert rough["parent"] == trial["id"] and rough["depth"] == 1
    assert frame["parent"] == probe["id"] and frame["depth"] == 2
    # Ids are allocated at entry: sorting by id recovers entry order even
    # though spans are written at exit (children before parents).
    assert trial["id"] < probe["id"] < frame["id"] < rough["id"]
    assert trial["attrs"] == {"engine": "serial", "n_hat": 123.0}
    assert frame["attrs"] == {"slots": 32}
    assert all(s["dur"] >= 0 for s in spans.values())


def test_jsonl_round_trip_through_report_loader(tmp_path):
    path = tmp_path / "t.jsonl"
    trace.configure(path)
    with trace.span("trial", engine="batched"):
        trace.event("trial", seed=7, n_hat=99.5)
    trace.flush()

    data = load_trace(path)
    assert [m["version"] for m in data.meta] == [1]
    assert [s["name"] for s in data.spans] == ["trial"]
    assert data.events[0]["attrs"] == {"seed": 7, "n_hat": 99.5}
    assert len(data.metrics) == 1  # flush() appended one snapshot record


def test_exception_inside_span_is_recorded_and_propagates(tmp_path):
    path = tmp_path / "t.jsonl"
    trace.configure(path)
    with pytest.raises(ValueError):
        with trace.span("trial"):
            raise ValueError("boom")
    (record,) = (r for r in _read_records(path) if r["t"] == "span")
    assert record["attrs"]["error"] == "ValueError"


def test_numpy_attrs_are_json_safe(tmp_path):
    np = pytest.importorskip("numpy")
    path = tmp_path / "t.jsonl"
    trace.configure(path)
    with trace.span("trial") as sp:
        sp.set(n_hat=np.float64(1.5), slots=np.int64(32), arr=np.arange(3))
    (record,) = (r for r in _read_records(path) if r["t"] == "span")
    assert record["attrs"] == {"n_hat": 1.5, "slots": 32, "arr": [0, 1, 2]}


# ----------------------------------------------------------------------
# configuration & environment
# ----------------------------------------------------------------------
def test_configure_exports_env_and_none_clears_it(tmp_path):
    path = tmp_path / "t.jsonl"
    trace.configure(path)
    assert trace.enabled()
    assert os.environ[TRACE_ENV] == str(path)
    assert os.environ[TRACE_ROOT_ENV] == str(os.getpid())
    trace.configure(None)
    assert not trace.enabled()
    assert TRACE_ENV not in os.environ
    assert TRACE_ROOT_ENV not in os.environ


def test_tracer_initialises_once_from_env(tmp_path, monkeypatch):
    path = tmp_path / "env.jsonl"
    trace.configure(None)  # also resets the env-checked latch? no — set below
    monkeypatch.setenv(TRACE_ENV, str(path))
    # configure(None) latches _env_checked; reset it the way a fresh process
    # would see the world.
    trace._env_checked = False
    trace._tracer = None
    t = trace.tracer()
    assert t is not None and t.path == str(path)
    assert t.root_pid == os.getpid()
    with trace.span("trial"):
        pass
    assert any(r["t"] == "span" for r in _read_records(path))


def test_non_root_pid_writes_sidecar(tmp_path):
    path = tmp_path / "t.jsonl"
    t = trace.Tracer(str(path), root_pid=os.getpid() + 1)
    assert t.sink_path() == f"{path}.w{os.getpid()}"
    with t.span("trial"):
        pass
    assert not path.exists()
    assert os.path.exists(t.sink_path())
    t.close()


def test_merge_worker_traces_folds_and_removes_sidecars(tmp_path):
    path = tmp_path / "t.jsonl"
    trace.configure(path)
    with trace.span("trial"):
        pass
    sidecar = tmp_path / "t.jsonl.w99999"
    sidecar.write_text(
        json.dumps({"t": "span", "pid": 99999, "id": 0, "parent": None,
                    "depth": 0, "name": "trial", "wall": 0.0, "dur": 0.1,
                    "attrs": {}}) + "\n"
    )
    assert trace.merge_worker_traces() == 1
    assert not sidecar.exists()
    pids = {r["pid"] for r in _read_records(path) if r["t"] == "span"}
    assert pids == {os.getpid(), 99999}


# ----------------------------------------------------------------------
# head sampling (1 of every N root trees)
# ----------------------------------------------------------------------
def test_parse_sample_accepts_rates_and_degrades_garbage_to_one():
    cases = [
        (None, 1),        # unset
        ("1/64", 64),     # canonical env form
        ("64", 64),       # bare denominator
        (64, 64),         # already an int
        (" 1/8 ", 8),     # whitespace tolerated
        ("2/3", 1),       # only 1/N rates make sense
        ("1/0", 1),       # degenerate denominator
        ("nope", 1),      # garbage must never discard data
        (0, 1),
        (-4, 1),
        (True, 1),        # bools are not rates
    ]
    for raw, expected in cases:
        assert trace._parse_sample(raw) == expected, raw


def test_sampling_keeps_every_nth_root_and_stamps_weight(tmp_path):
    path = tmp_path / "t.jsonl"
    trace.configure(path, sample=4)
    for i in range(8):
        with trace.span("trial", i=i) as sp:
            if sp:
                sp.set(n_hat=float(i))
            with trace.span("round"):
                pass
    records = _read_records(path)
    assert [r["sample"] for r in records if r["t"] == "meta"] == [4]
    spans = [r for r in records if r["t"] == "span"]
    roots = [r for r in spans if r["parent"] is None]
    # The per-thread counter keeps roots 0 and 4 of the 8 — deterministic,
    # no randomness — and every written span carries its 1/N weight.
    assert [r["attrs"]["i"] for r in roots] == [0, 4]
    assert len(spans) == 4  # two kept trees x (root + child)
    assert all(r["sample"] == 4 for r in spans)


def test_unsampled_tree_suppresses_spans_but_not_events(tmp_path):
    path = tmp_path / "t.jsonl"
    trace.configure(path, sample=2)
    with trace.span("trial") as kept:  # root seq 0: kept
        assert kept
    with trace.span("trial") as dropped:  # root seq 1: dropped
        assert not dropped  # falsy like NULL_SPAN: `if sp:` guards skip
        dropped.set(n_hat=1.0)  # silently ignored
        child = trace.span("round")
        assert child is NULL_SPAN  # descendants cost one stack peek
        trace.event("slo_breach", scope="global")  # events never sampled
    records = _read_records(path)
    assert sum(r["t"] == "span" for r in records) == 1
    assert sum(r["t"] == "event" for r in records) == 1


def test_sampling_counters_are_per_thread(tmp_path):
    import threading

    path = tmp_path / "t.jsonl"
    trace.configure(path, sample=4)

    def worker():
        for _ in range(8):
            with trace.span("trial"):
                pass

    threads = [threading.Thread(target=worker) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    spans = [r for r in _read_records(path) if r["t"] == "span"]
    # Each thread keeps exactly 1 in 4 of its own 8 roots — thread
    # interleaving can never starve or double-count a thread's share.
    assert len(spans) == 3 * 2


def test_configure_exports_and_clears_sample_env(tmp_path):
    trace.configure(tmp_path / "t.jsonl", sample="1/64")
    assert os.environ[trace.TRACE_SAMPLE_ENV] == "1/64"
    assert trace.tracer().sample_every == 64
    # Re-configuring without `sample` inherits the exported rate, so
    # worker processes and later phases sample consistently.
    trace.configure(tmp_path / "u.jsonl")
    assert trace.tracer().sample_every == 64
    # Explicit sample=1 turns sampling off and clears the export.
    trace.configure(tmp_path / "v.jsonl", sample=1)
    assert trace.TRACE_SAMPLE_ENV not in os.environ
    assert trace.tracer().sample_every == 1


def test_report_scales_sampled_trials(tmp_path):
    from repro.obs import report as obs_report

    path = tmp_path / "t.jsonl"
    trace.configure(path, sample=4)
    for _ in range(8):
        with trace.span("trial", engine="analytic") as sp:
            if sp:
                sp.set(n_hat=100.0, seconds=0.5, n_true=100)
    summary = obs_report.summarise(path)
    assert summary["trials"] == 8  # 2 recorded x weight 4
    assert summary["sampled"] == {
        "max_sample": 4,
        "trials_recorded": 2,
        "trials_estimated": 8,
    }
    text = obs_report.render_summary(summary)
    assert "sampled 1/4: 2 recorded" in text


_TRACED_CHILD = """
from repro.experiments.batch import run_bfce_trials_batched
from repro.obs import metrics
from repro.rfid.ids import uniform_ids
from repro.rfid.tags import TagPopulation

run_bfce_trials_batched(TagPopulation(uniform_ids(20_000, seed=3)), trials=4)
print(int(metrics.get("kernel.native.calls")))
"""


def test_single_process_run_flushes_metrics_at_exit(tmp_path):
    """A traced run that never calls ``flush()`` still leaves its final
    metrics record, so ``obs summary`` counts its kernel calls."""
    import subprocess
    import sys

    from repro.obs.report import metrics_totals

    path = tmp_path / "run.jsonl"
    env = {k: v for k, v in os.environ.items() if k != TRACE_ROOT_ENV}
    env[TRACE_ENV] = str(path)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    child = subprocess.run(
        [sys.executable, "-c", _TRACED_CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    calls = int(child.stdout.split()[-1])
    totals = metrics_totals(load_trace(path))
    assert totals.get("kernel.native.calls", 0) == calls


def test_frame_spans_carry_request_and_observation(tmp_path):
    """The engines tag each ``frame`` / ``frame.batch`` span from the
    request and its observation, so traces keep per-frame detail."""
    from repro.core.bfce import BFCE
    from repro.experiments.batch import run_bfce_trials_batched
    from repro.rfid.ids import uniform_ids
    from repro.rfid.tags import TagPopulation

    path = tmp_path / "t.jsonl"
    trace.configure(path)
    pop = TagPopulation(uniform_ids(5_000, seed=1))
    BFCE().estimate(pop, seed=2)
    run_bfce_trials_batched(pop, trials=2, base_seed=3)
    trace.configure(None)
    spans = [r for r in _read_records(path) if r.get("t") == "span"]

    frames = [s for s in spans if s["name"] == "frame"]
    assert {f["attrs"]["phase"] for f in frames} == {"probe", "rough", "accurate"}
    for f in frames:
        attrs = f["attrs"]
        assert {"pn", "slots", "idle_slots", "rho"} <= set(attrs)
        assert attrs["rho"] == attrs["idle_slots"] / attrs["slots"]

    batches = [s for s in spans if s["name"] == "frame.batch"]
    assert {b["attrs"]["phase"] for b in batches} == {"probe", "rough", "accurate"}
    for b in batches:
        attrs = b["attrs"]
        assert 0 <= attrs["idle_slots"] <= attrs["trials"] * attrs["slots"]
