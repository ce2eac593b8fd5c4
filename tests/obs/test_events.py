"""Surfaced events: engine fallbacks, ledger cross-checks, merge guard."""

from __future__ import annotations

import pytest

from repro.obs import metrics, trace
from repro.obs.events import (
    EngineFallbackWarning,
    LedgerDriftWarning,
    engine_fallback,
    ledger_crosscheck,
)
from repro.obs.trace import ledger_phase_cums


def test_engine_fallback_counts_warns_and_traces(tmp_path):
    trace.configure(tmp_path / "t.jsonl")
    with pytest.warns(EngineFallbackWarning, match="fell back to 'serial'"):
        engine_fallback(
            "run_trials", requested="batched", actual="serial", reason="test"
        )
    assert metrics.get("engine.fallback") == 1
    assert metrics.get("engine.fallback.run_trials") == 1

    from repro.obs.report import load_trace

    (event,) = load_trace(tmp_path / "t.jsonl").events
    assert event["name"] == "engine.fallback"
    assert event["attrs"]["requested"] == "batched"


def test_run_trials_nonbatchable_fallback_is_surfaced(pop_small):
    from repro.baselines.upe import UPE
    from repro.experiments.runner import run_trials

    with pytest.warns(EngineFallbackWarning, match="UPE is not batchable"):
        records = run_trials(UPE(), pop_small, trials=1, engine="batched")
    assert len(records) == 1
    assert metrics.get("engine.fallback.run_trials") == 1
    assert metrics.get("engine.select.serial") == 1


def _fallback_via_noisy_channel(pop):
    from repro.experiments.batch import run_bfce_trials_batched
    from repro.rfid.channel import NoisyChannel

    return run_bfce_trials_batched(pop, trials=1, channel=NoisyChannel(miss_prob=0.01))


def _fallback_via_nonbatchable_baseline(pop):
    from repro.baselines.upe import UPE
    from repro.experiments.runner import run_trials

    return run_trials(UPE(), pop, trials=1, engine="batched")


@pytest.mark.parametrize(
    "run",
    [
        _fallback_via_noisy_channel,
        _fallback_via_nonbatchable_baseline,
    ],
)
def test_every_engine_fallback_site_is_surfaced(run, pop_small):
    """Each of the two serial fallbacks warns, counts once and marks its
    records as served by the serial engine."""
    with pytest.warns(EngineFallbackWarning, match="fell back to 'serial'"):
        records = run(pop_small)
    assert metrics.get("engine.fallback") == 1
    assert [r.extra["engine"] for r in records] == ["serial"]


def test_batchable_baseline_does_not_warn(pop_small):
    import warnings

    from repro.baselines.lof import LOF
    from repro.experiments.runner import run_trials

    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        run_trials(LOF(), pop_small, trials=1, engine="batched")
    assert metrics.get("engine.fallback") == 0


def test_ledger_crosscheck_ok_and_mismatch():
    from repro.core.bfce import bfce_estimate
    from repro.rfid.ids import make_ids

    result = bfce_estimate(make_ids("T1", 1_000, seed=2), seed=3)
    runs = ledger_phase_cums(result.ledger)
    metrics.reset()  # the instrumented trial above already cross-checked once
    assert ledger_crosscheck("test", result.elapsed_seconds, runs)
    assert metrics.get("ledger.crosscheck.ok") == 1
    assert metrics.get("ledger.crosscheck.mismatch") == 0

    with pytest.warns(LedgerDriftWarning):
        assert not ledger_crosscheck("test", result.elapsed_seconds + 1e-9, runs)
    assert metrics.get("ledger.crosscheck.mismatch") == 1
    assert metrics.get("ledger.elapsed_seconds_total") == pytest.approx(
        2 * result.elapsed_seconds, abs=1e-8
    )


def test_bfce_trial_crosschecks_by_itself(pop_small):
    from repro.core.bfce import BFCE

    BFCE().estimate(pop_small, seed=4)
    assert metrics.get("ledger.crosscheck.ok") >= 1
    assert metrics.get("ledger.crosscheck.mismatch") == 0


def test_time_ledger_merge_rejects_mismatched_timing():
    from repro.timing.accounting import TimeLedger

    a = TimeLedger()
    b = TimeLedger()
    b.record_downlink(32, phase="probe", label="q")
    a.merge(b)  # same (default) timing: fine
    assert len(a.messages) == 1

    import dataclasses

    other = TimeLedger(
        timing=dataclasses.replace(a.timing, interval_us=a.timing.interval_us * 2)
    )
    with pytest.raises(ValueError, match="different timing models"):
        a.merge(other)


def test_monitor_survey_metrics(pop_small):
    from repro.core.monitor import CardinalityMonitor

    monitor = CardinalityMonitor()
    monitor.observe(pop_small, seed=1)
    monitor.observe(pop_small, seed=2)
    assert metrics.get("monitor.surveys") == 2
    assert metrics.snapshot()["gauges"]["monitor.smoothed"] == monitor.smoothed
