"""Structured tracing + metrics for the BFCE reproduction (`repro.obs`).

Zero-dependency observability layer: a span tracer with a process-safe
JSONL sink (:mod:`repro.obs.trace`), an always-on in-process metrics
registry (:mod:`repro.obs.metrics`), counted + warning-surfaced protocol
events (:mod:`repro.obs.events`), and trace-file reporting
(:mod:`repro.obs.report`).

Tracing is **off by default** and purely observational — instrumented
code paths produce bit-identical estimator output with tracing on or
off.  Enable with ``REPRO_TRACE=/path/to/run.jsonl`` in the environment
or :func:`configure` in code::

    from repro import obs

    obs.configure("/tmp/run.jsonl")
    ... run trials/sweeps ...
    obs.flush()

    python -m repro.cli obs summary --file /tmp/run.jsonl
"""

from __future__ import annotations

from . import host, live, metrics, report
from .events import (
    EngineFallbackWarning,
    LedgerDriftWarning,
    engine_fallback,
    ledger_crosscheck,
    slo_breach,
)
from .live import LiveTelemetry, SLOSpec, SLOTracker
from .trace import (
    NULL_SPAN,
    TRACE_ENV,
    TRACE_SAMPLE_ENV,
    Span,
    Tracer,
    configure,
    enabled,
    event,
    flush,
    ledger_phase_cums,
    merge_worker_traces,
    span,
    tracer,
)

__all__ = [
    "EngineFallbackWarning",
    "LedgerDriftWarning",
    "LiveTelemetry",
    "NULL_SPAN",
    "SLOSpec",
    "SLOTracker",
    "Span",
    "TRACE_ENV",
    "TRACE_SAMPLE_ENV",
    "Tracer",
    "configure",
    "enabled",
    "engine_fallback",
    "event",
    "flush",
    "ledger_crosscheck",
    "host",
    "ledger_phase_cums",
    "live",
    "merge_worker_traces",
    "metrics",
    "report",
    "slo_breach",
    "span",
    "tracer",
]
