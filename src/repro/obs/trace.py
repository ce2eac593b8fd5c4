"""Structured span tracer with a process-safe JSONL sink.

The tracer records *spans* — named, nestable intervals of work
(``trial > probe/rough/accurate > frame``) carrying structured attributes —
and writes one JSON object per line to a trace file.  Design constraints,
in order:

1. **Off by default, near-zero cost when off.**  :func:`span` returns a
   shared no-op singleton when no tracer is configured: one module-global
   read, one ``is None`` test, no allocation.  Instrumentation sites guard
   expensive attribute computation behind the span's truthiness
   (``if sp: sp.set(...)`` — the null span is falsy).
2. **Observe, never consume.**  Spans draw no randomness and mutate no
   estimator state; enabling tracing is bit-identity-preserving by
   construction (pinned by ``tests/obs/test_bit_identity.py``).
3. **Process-safe.**  ``ProcessPoolExecutor`` sweep workers inherit the
   configured tracer (fork) or re-derive it from ``REPRO_TRACE`` (spawn).
   Only the *root* process (recorded in ``REPRO_TRACE_ROOT``) writes to the
   main file; every other pid appends to a per-worker sidecar
   ``<path>.w<pid>`` which :func:`merge_worker_traces` folds back into the
   main file — no cross-process file-handle sharing, no interleaved lines.

Enable with ``REPRO_TRACE=/path/trace.jsonl`` in the environment or
:func:`configure` in code.  Record schema (one JSON object per line)::

    {"t": "meta",    "pid": ..., "version": 1, "wall": ..., "root": ...}
    {"t": "span",    "pid": ..., "id": ..., "parent": ..., "depth": ...,
                     "name": ..., "wall": ..., "dur": ..., "attrs": {...}}
    {"t": "event",   "pid": ..., "name": ..., "wall": ..., "attrs": {...}}
    {"t": "metrics", "pid": ..., "wall": ..., "counters": {...},
                     "gauges": {...}, "histograms": {...}}

Span ids are unique per ``(pid, id)``; ``parent`` is the enclosing span's
id within the same pid (``None`` at the top level).  Spans are written at
*exit*, so a parent's line appears after its children's — readers must sort
by ``(pid, id)`` (ids are allocated at entry) to recover entry order.
"""

from __future__ import annotations

import atexit
import glob as _glob
import json
import os
import threading
import time

__all__ = [
    "TRACE_ENV",
    "TRACE_ROOT_ENV",
    "TRACE_SAMPLE_ENV",
    "Span",
    "Tracer",
    "configure",
    "enabled",
    "event",
    "flush",
    "ledger_phase_cums",
    "merge_worker_traces",
    "span",
    "tracer",
]

TRACE_ENV = "REPRO_TRACE"
TRACE_ROOT_ENV = "REPRO_TRACE_ROOT"
TRACE_SAMPLE_ENV = "REPRO_TRACE_SAMPLE"

_FORMAT_VERSION = 1


def _parse_sample(raw) -> int:
    """``REPRO_TRACE_SAMPLE`` → keep-every-N (``"1/64"`` or ``"64"`` → 64).

    Head sampling keeps 1 of every N *root* span trees.  Anything
    unparseable (or < 1) degrades to 1 — i.e. keep everything — so a
    typo in the environment can never silently discard trace data.
    """
    if raw is None:
        return 1
    if isinstance(raw, bool):
        return 1
    if isinstance(raw, int):
        return max(1, raw)
    text = str(raw).strip()
    if "/" in text:
        head, _, tail = text.partition("/")
        try:
            num, den = int(head), int(tail)
        except ValueError:
            return 1
        if num != 1 or den < 1:
            return 1
        return den
    try:
        return max(1, int(text))
    except ValueError:
        return 1


def _json_safe(value):
    """Coerce NumPy scalars/arrays (and anything else odd) to JSON types."""
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    return repr(value)


def _dumps(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"), default=_json_safe)


class _NullSpan:
    """Falsy no-op span shared by every disabled-tracing call site."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def __bool__(self) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


NULL_SPAN = _NullSpan()


class _UnsampledRoot:
    """Stack placeholder for a root span tree the head-sampler dropped.

    It is pushed onto the thread-local span stack so child call sites
    still see an unsampled top-of-stack (and short-circuit to
    :data:`NULL_SPAN`), but it allocates no span id, takes no
    timestamps and writes no record — the dropped-tree path is the hot
    one at 1/N sampling, and its cost is what the service bench's
    trace-overhead gate bounds.  One instance per thread, pinned to that
    thread's stack list (nested roots are impossible — a non-empty stack
    never produces a root — so one placeholder per stack suffices).
    Falsy like :data:`NULL_SPAN` so guarded attribute computation is
    skipped.
    """

    __slots__ = ("_stack",)

    sampled = False

    def __init__(self, stack: list) -> None:
        self._stack = stack

    def __enter__(self) -> "_UnsampledRoot":
        self._stack.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        stack = self._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # exited out of order: drop it and its orphans
            del stack[stack.index(self):]
        return False

    def __bool__(self) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


class Span:
    """One live span; use as a context manager, add attributes via :meth:`set`.

    Attributes are observed data only — estimator code must never read them
    back.  The span is truthy, so instrumentation can guard expensive
    attribute computation with ``if sp:``.
    """

    __slots__ = (
        "name", "attrs", "span_id", "parent_id", "depth",
        "sampled", "_tracer", "_t0", "_wall",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = -1
        self.parent_id: int | None = None
        self.depth = 0
        self.sampled = True
        self._t0 = 0.0
        self._wall = 0.0

    def __bool__(self) -> bool:
        return True

    def set(self, **attrs) -> None:
        """Attach (or overwrite) structured attributes on this span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        self._wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter() - self._t0
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._exit(self, dur)
        return False


class Tracer:
    """Writes span/event/metrics records to a JSONL file, sidecar-per-pid.

    Parameters
    ----------
    path:
        The main trace file.  The process whose pid equals ``root_pid``
        appends here; any other process appends to ``<path>.w<pid>``.
    root_pid:
        Pid of the process that owns the main file.  Defaults to the
        current process.
    sample_every:
        Head-based sampling: keep 1 of every N **root** span trees
        (``REPRO_TRACE_SAMPLE=1/N``).  The decision is made once, at the
        root, from a deterministic per-thread round-robin counter — no
        randomness is
        drawn (constraint 2 above), and a whole request tree is either
        fully present or fully absent, never torn.  Kept spans carry a
        ``"sample": N`` tag so :mod:`repro.obs.report` can scale counts
        back up; events and metrics records are **never** sampled.
    """

    def __init__(
        self,
        path: str,
        *,
        root_pid: int | None = None,
        sample_every: int = 1,
    ) -> None:
        self.path = str(path)
        self.root_pid = int(root_pid) if root_pid is not None else os.getpid()
        self.sample_every = max(1, int(sample_every))
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fh = None
        self._fh_pid: int | None = None
        self._next_id = 0

    # ------------------------------------------------------------------
    # sink
    # ------------------------------------------------------------------
    def sink_path(self) -> str:
        """This process's output file (main file for the root pid)."""
        pid = os.getpid()
        return self.path if pid == self.root_pid else f"{self.path}.w{pid}"

    def _file(self):
        pid = os.getpid()
        if self._fh is None or self._fh_pid != pid:
            # First write in this process (or first after a fork): (re)open
            # this pid's own sink and stamp it with a meta record.
            if self._fh is not None and self._fh_pid == pid:
                return self._fh
            self._fh = open(self.sink_path(), "a", encoding="utf-8")
            self._fh_pid = pid
            self._fh.write(
                _dumps(
                    {
                        "t": "meta",
                        "version": _FORMAT_VERSION,
                        "pid": pid,
                        "root": self.root_pid,
                        "sample": self.sample_every,
                        "wall": time.time(),
                    }
                )
                + "\n"
            )
            self._fh.flush()
        return self._fh

    def _write(self, record: dict) -> None:
        line = _dumps(record) + "\n"
        with self._lock:
            fh = self._file()
            fh.write(line)
            fh.flush()

    def flush(self) -> None:
        """Flush the underlying file (writes already flush per record)."""
        with self._lock:
            if self._fh is not None and self._fh_pid == os.getpid():
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None and self._fh_pid == os.getpid():
                self._fh.close()
            self._fh = None
            self._fh_pid = None

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.root_seq = 0
            self._local.unsampled_root = _UnsampledRoot(stack)
        return stack

    def span(self, name: str, **attrs):
        """A new span; nest by entering it while another span is active.

        At 1/N sampling the keep-or-drop decision is made **here**, at
        root creation: a dropped root gets this thread's
        :class:`_UnsampledRoot` placeholder (no id, no timestamps, no
        record — just a stack push so descendants suppress), and every
        call site inside an unsampled tree gets the shared
        :data:`NULL_SPAN` — one stack peek, no allocation.
        """
        if self.sample_every > 1:
            local = self._local
            stack = self._stack()
            if stack:
                if not stack[-1].sampled:
                    return NULL_SPAN
            else:
                # Root of a new tree: deterministic keep-1-in-N decision.
                # Round-robin, not random (tracing must draw no randomness
                # so it stays bit-identity-preserving), and the counter is
                # per-thread so the hot dropped-root path takes no lock —
                # each thread keeps exactly 1 of its every N roots.
                seq = local.root_seq
                local.root_seq = seq + 1
                if seq % self.sample_every:
                    return local.unsampled_root
        return Span(self, name, attrs)

    def _enter(self, span: Span) -> None:
        stack = self._stack()
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
        if stack:
            span.sampled = stack[-1].sampled
        span.parent_id = stack[-1].span_id if stack else None
        span.depth = len(stack)
        stack.append(span)

    def _exit(self, span: Span, dur: float) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # exited out of order: drop it and its orphans
            del stack[stack.index(span):]
        if not span.sampled:
            return
        record = {
            "t": "span",
            "pid": os.getpid(),
            "id": span.span_id,
            "parent": span.parent_id,
            "depth": span.depth,
            "name": span.name,
            "wall": span._wall,
            "dur": dur,
            "attrs": span.attrs,
        }
        if self.sample_every > 1:
            record["sample"] = self.sample_every
        self._write(record)

    def event(self, name: str, **attrs) -> None:
        """Write one instantaneous event record."""
        self._write(
            {
                "t": "event",
                "pid": os.getpid(),
                "name": name,
                "wall": time.time(),
                "attrs": attrs,
            }
        )

    def write_metrics(self, snapshot: dict) -> None:
        """Write the current metrics snapshot as one cumulative record."""
        record = {"t": "metrics", "pid": os.getpid(), "wall": time.time()}
        record.update(snapshot)
        self._write(record)


# ----------------------------------------------------------------------
# module-level state
# ----------------------------------------------------------------------
_tracer: Tracer | None = None
_env_checked = False


def tracer() -> Tracer | None:
    """The active tracer, initialising once from ``REPRO_TRACE`` if set."""
    global _tracer, _env_checked
    if _tracer is None and not _env_checked:
        _env_checked = True
        path = os.environ.get(TRACE_ENV)
        if path:
            root = os.environ.get(TRACE_ROOT_ENV)
            if root is None:
                # First process to initialise owns the main file; children
                # (fork or spawn) see the pid via the environment and write
                # sidecars instead.
                os.environ[TRACE_ROOT_ENV] = str(os.getpid())
                root = str(os.getpid())
            _tracer = Tracer(
                path,
                root_pid=int(root),
                sample_every=_parse_sample(os.environ.get(TRACE_SAMPLE_ENV)),
            )
    return _tracer


def configure(
    path: str | os.PathLike | None, *, sample: int | str | None = None
) -> Tracer | None:
    """Enable tracing to ``path`` (or disable with ``None``).

    Also exports ``REPRO_TRACE``/``REPRO_TRACE_ROOT`` so worker processes —
    forked or spawned — route their records to per-worker sidecar files of
    the same trace.  ``sample`` sets head-based sampling (``64`` or
    ``"1/64"`` keeps 1 of 64 root span trees); when omitted, the current
    ``REPRO_TRACE_SAMPLE`` environment value applies.  The effective rate
    is re-exported to the environment so workers sample consistently.
    """
    global _tracer, _env_checked
    _env_checked = True
    if _tracer is not None:
        _tracer.close()
    if path is None:
        _tracer = None
        os.environ.pop(TRACE_ENV, None)
        os.environ.pop(TRACE_ROOT_ENV, None)
        if sample is not None:
            os.environ.pop(TRACE_SAMPLE_ENV, None)
        return None
    if sample is None:
        sample_every = _parse_sample(os.environ.get(TRACE_SAMPLE_ENV))
    else:
        sample_every = _parse_sample(sample)
    _tracer = Tracer(str(path), sample_every=sample_every)
    os.environ[TRACE_ENV] = str(path)
    os.environ[TRACE_ROOT_ENV] = str(_tracer.root_pid)
    if sample_every > 1:
        os.environ[TRACE_SAMPLE_ENV] = f"1/{sample_every}"
    elif sample is not None:
        os.environ.pop(TRACE_SAMPLE_ENV, None)
    return _tracer


def enabled() -> bool:
    """Whether a tracer is active in this process."""
    return tracer() is not None


def span(name: str, **attrs):
    """A span under the active tracer, or the shared no-op when disabled."""
    t = tracer()
    if t is None:
        return NULL_SPAN
    return t.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """Record one instantaneous event (no-op when tracing is disabled)."""
    t = tracer()
    if t is not None:
        t.event(name, **attrs)


def flush() -> None:
    """Append the current metrics snapshot to the trace and flush the sink.

    No-op when tracing is disabled.  Counters are cumulative per process, so
    readers keep only the **last** metrics record of each pid and sum across
    pids (:func:`repro.obs.report.metrics_totals` does exactly that).
    """
    t = tracer()
    if t is None:
        return
    from . import metrics

    t.write_metrics(metrics.snapshot())
    t.flush()


@atexit.register
def _flush_at_exit() -> None:
    """Write a traced process's final metrics record at interpreter exit.

    Sweep workers and the server flush explicitly; a plain single-process
    run would otherwise leave no metrics record, and ``obs summary`` would
    read its counters as zero.  Pool workers leave through ``os._exit`` and
    never get here.
    """
    if _tracer is None:
        return
    try:
        flush()
    except OSError:
        pass  # the trace's directory is already gone (a removed temp dir)


def merge_worker_traces(path: str | os.PathLike | None = None) -> int:
    """Fold ``<path>.w<pid>`` sidecar files back into the main trace file.

    Returns the number of sidecars merged (and removed).  Safe to call when
    there are none; called automatically at the end of
    :func:`repro.experiments.sweep.run_sweep` and before the ``obs`` CLI
    reads a trace.
    """
    if path is None:
        t = tracer()
        if t is None:
            return 0
        path = t.path
    path = str(path)
    sidecars = sorted(_glob.glob(glob_escape(path) + ".w*"))
    if not sidecars:
        return 0
    with open(path, "a", encoding="utf-8") as main:
        for sidecar in sidecars:
            with open(sidecar, "r", encoding="utf-8") as fh:
                for line in fh:
                    if line.strip():
                        main.write(line if line.endswith("\n") else line + "\n")
            os.unlink(sidecar)
    return len(sidecars)


def glob_escape(path: str) -> str:
    """``glob.escape`` (wrapped so the module import list stays tidy)."""
    return _glob.escape(path)


# ----------------------------------------------------------------------
# ledger helpers
# ----------------------------------------------------------------------
def ledger_phase_cums(ledger) -> list[dict]:
    """Per-phase air-time totals of a :class:`~repro.timing.accounting.TimeLedger`.

    Walks the ledger's messages once, left to right, accumulating the same
    float64 running total as :meth:`TimeLedger.total_seconds` (which sums
    message costs in record order).  Returns one dict per *contiguous run*
    of a phase::

        {"phase": str, "seconds": float, "cum": float,
         "down_bits": int, "up_slots": int, "messages": int}

    ``cum`` is the running total *after* the run — the final run's ``cum``
    is bit-identical to ``ledger.total_seconds()`` — and ``seconds`` is the
    delta ``cum - previous cum``.  Telescoping the deltas therefore
    reconstructs the exact total: summing the trace's per-phase ledger
    seconds via :func:`repro.obs.report.trial_ledger_total` gives back
    ``elapsed_seconds`` with no float drift.  This is also the obs-side
    cross-check of the ledger ground truth (see
    :func:`repro.obs.events.ledger_crosscheck`).
    """
    timing = ledger.timing
    total = 0.0
    runs: list[dict] = []
    current: dict | None = None
    for m in ledger.messages:
        if current is None or m.phase != current["phase"]:
            current = {
                "phase": m.phase,
                "start": total,
                "seconds": 0.0,
                "cum": total,
                "down_bits": 0,
                "up_slots": 0,
                "messages": 0,
            }
            runs.append(current)
        total += m.cost_seconds(timing)
        current["cum"] = total
        current["seconds"] = total - current["start"]
        current["messages"] += m.count
        if m.direction == "down":
            current["down_bits"] += m.total_bits
        else:
            current["up_slots"] += m.total_bits
    for run in runs:
        del run["start"]
    return runs
