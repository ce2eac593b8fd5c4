"""In-memory span recorder that wraps the program's public functions.

The program itself gets no instrumentation: a traced run replaces each
layer's public function, at every module that holds a reference to it,
with a wrapper that times the call.  Two kinds of wrapper exist:

- *leaf* wrappers only count calls and add up their time, per thread and
  per benchmark phase (cheap enough for ``metrics.inc``, which runs many
  times per request);
- *span* wrappers keep one record per call — ``(id, name, phase, parent,
  start, end, extra)`` — so self time (duration minus the part covered by
  child spans) and percentiles can be computed when the run ends.

Synchronous spans nest through a per-thread stack.  Coroutine spans are
recorded without a parent and never become one: across an ``await`` the
thread-local stack belongs to whichever task runs next.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

from stats import self_time


class Recorder:
    """Span and call-count store for one traced process."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_aggs: list[dict] = []

    # -- per-thread state ----------------------------------------------
    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _agg(self) -> dict:
        try:
            return self._local.agg
        except AttributeError:
            agg: dict = {}
            self._local.agg = agg
            with self._lock:
                self._thread_aggs.append(agg)
            return agg

    # -- wrappers --------------------------------------------------------
    def leaf(self, name, fn):
        """Count calls and total seconds; ``name`` may be ``f(result)``."""
        perf = time.perf_counter
        rec = self
        pick = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            result = fn(*args, **kwargs)
            dt = perf() - t0
            key = (rec.phase, pick(result) if pick else name)
            agg = rec._agg()
            slot = agg.get(key)
            if slot is None:
                agg[key] = [1, dt]
            else:
                slot[0] += 1
                slot[1] += dt
            return result

        return wrapper

    def span(self, name, fn, extra=None):
        """Record one span per call; ``extra(args, kwargs, result)`` adds data."""
        perf = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else 0
            sid = next(rec._ids)
            stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
            data = extra(args, kwargs, result) if extra is not None else None
            rec.spans.append((sid, name, rec.phase, parent, t0, t1, data))
            return result

        return wrapper

    def async_span(self, name, fn, extra=None):
        """Coroutine variant of :meth:`span` (no parent, never a parent)."""
        perf = time.perf_counter
        rec = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            sid = next(rec._ids)
            phase = rec.phase
            t0 = perf()
            result = await fn(*args, **kwargs)
            t1 = perf()
            data = extra(args, kwargs, result) if extra is not None else None
            rec.spans.append((sid, name, phase, 0, t0, t1, data))
            return result

        return wrapper

    def kernel(self, name, fn, work=None):
        """Span a native kernel with process CPU time and a computed work count."""
        perf = time.perf_counter
        cpu = time.process_time
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else 0
            sid = next(rec._ids)
            c0 = cpu()
            t0 = perf()
            result = fn(*args, **kwargs)
            t1 = perf()
            c1 = cpu()
            count = work(args) if work is not None else 0
            rec.spans.append((sid, name, rec.phase, parent, t0, t1, (c1 - c0, count)))
            return result

        return wrapper

    # -- reading back ----------------------------------------------------
    def leaf_totals(self, phases=None) -> dict:
        """``{name: [calls, seconds]}`` summed over threads and ``phases``
        (every phase when None)."""
        out: dict = {}
        with self._lock:
            aggs = list(self._thread_aggs)
        for agg in aggs:
            for (phase, name), (calls, seconds) in list(agg.items()):
                if phases is None or phase in phases:
                    slot = out.setdefault(name, [0, 0.0])
                    slot[0] += calls
                    slot[1] += seconds
        return out

    def select(self, phases, name=None) -> list[tuple]:
        return [
            s for s in self.spans
            if s[2] in phases and (name is None or s[1] == name)
        ]


def children_index(spans) -> dict:
    """``{parent_id: [(start, end), ...]}`` over the given spans."""
    index: dict = {}
    for sid, _name, _phase, parent, t0, t1, _extra in spans:
        if parent:
            index.setdefault(parent, []).append((t0, t1))
    return index


def total_self(spans, name, index) -> float:
    """Summed self time of every span called ``name``."""
    return sum(
        self_time(t0, t1, index.get(sid, ()))
        for sid, n, _phase, _parent, t0, t1, _extra in spans
        if n == name
    )


# ----------------------------------------------------------------------
# Installing wrappers at every import site
# ----------------------------------------------------------------------
def _sites(original) -> list[tuple]:
    """Every ``(namespace, key)`` in a loaded ``repro`` module that holds
    ``original``: module attributes, and entries of module-level dicts
    (dispatch tables such as ``estimator class -> batch runner``)."""
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            if value is original:
                sites.append((namespace, key))
            elif type(value) is dict:
                sites.extend((value, k) for k, v in list(value.items()) if v is original)
    return sites


def wrap_function(module, attr: str, make) -> list[tuple]:
    """Replace ``module.attr`` everywhere it is referenced; returns undo records."""
    original = getattr(module, attr)
    wrapped = make(original)
    undo = []
    for namespace, key in _sites(original):
        namespace[key] = wrapped
        undo.append((namespace, key, original))
    return undo


def wrap_method(cls, attr: str, make) -> list[tuple]:
    """Replace a method (plain or classmethod) on its class."""
    original = cls.__dict__[attr]
    if isinstance(original, classmethod):
        wrapped = classmethod(make(original.__func__))
    else:
        wrapped = make(original)
    setattr(cls, attr, wrapped)
    return [(cls, attr, original)]


def restore(undo: list[tuple]) -> None:
    for owner, key, original in reversed(undo):
        if isinstance(owner, dict):
            owner[key] = original
        else:
            setattr(owner, key, original)


# ----------------------------------------------------------------------
# The layer table
# ----------------------------------------------------------------------
KERNELS = (
    "bfce_counts",
    "analytic_scatter",
    "occupancy",
    "aloha_empty",
    "hll_update",
    "hll_merge",
)


def _bfce_events(args) -> int:
    ids, _rn, rs32 = args[0], args[1], args[2]
    return int(rs32.shape[0]) * int(rs32.shape[1]) * int(ids.size)


def _hll_ids(args) -> int:
    return int(args[0].size)


def _estimate_extra(args, kwargs, result):
    return (args[1], int(args[2]))


def _inline_extra(args, kwargs, result):
    return args[0].canonical


def _analytic_extra(args, kwargs, result):
    return int(kwargs.get("trials", 0))


def install(rec: Recorder) -> list[tuple]:
    """Wrap every layer the benchmark reports; returns the undo records."""
    # import_module, not ``from package import name``: package namespaces
    # re-export functions that shadow submodules (repro.experiments.sweep).
    (batch, runner, sweep, workloads, baselines_batch, live, metrics, _native,
     multireader, admission, coalescer, protocol, zones, hll) = (
        importlib.import_module(f"repro.{name}") for name in (
            "experiments.batch", "experiments.runner", "experiments.sweep",
            "experiments.workloads", "baselines.batch", "obs.live", "obs.metrics",
            "rfid._native", "rfid.multireader", "service.admission",
            "service.coalescer", "service.protocol", "service.zones", "sketch.hll",
        )
    )
    importlib.import_module("repro.service.server")  # an import site of several

    undo: list[tuple] = []
    undo += wrap_function(protocol, "parse_request", lambda f: rec.leaf("protocol.parse", f))
    undo += wrap_function(protocol, "encode_response", lambda f: rec.leaf("protocol.encode", f))
    undo += wrap_method(
        admission.AdmissionController, "acquire", lambda f: rec.async_span("admission.acquire", f)
    )
    undo += wrap_method(zones.ZoneConfig, "group_key", lambda f: rec.leaf("zones.group_key", f))
    undo += wrap_method(zones.Zone, "track", lambda f: rec.leaf("zones.track", f))
    undo += wrap_method(
        coalescer.RequestCoalescer, "estimate",
        lambda f: rec.async_span("coalescer.estimate", f, _estimate_extra),
    )
    undo += wrap_function(
        sweep, "execute_point_inline", lambda f: rec.span("sweep.inline", f, _inline_extra)
    )
    undo += wrap_function(sweep, "run_sweep", lambda f: rec.span("sweep.run", f))
    # run_sweep's per-point step; the executors behind it are private too,
    # so this is the narrowest name that brackets exactly one point.
    undo += wrap_function(sweep, "_execute_canonical", lambda f: rec.span("sweep.point", f))
    undo += wrap_method(
        sweep.TrialCache, "load",
        lambda f: rec.leaf(
            lambda r: "sweep.cache_load_miss" if r is None else "sweep.cache_load_hit", f
        ),
    )
    undo += wrap_method(sweep.TrialCache, "store", lambda f: rec.leaf("sweep.cache_store", f))
    undo += wrap_function(
        runner, "run_bfce_trials_analytic",
        lambda f: rec.span("engine.analytic", f, _analytic_extra),
    )
    undo += wrap_function(batch, "run_bfce_trials_batched", lambda f: rec.span("engine.batched", f))
    for est in ("lof", "zoe", "src"):
        undo += wrap_function(
            baselines_batch, f"run_{est}_batch",
            lambda f, e=est: rec.span(f"baselines.{e}", f),
        )
    undo += wrap_function(
        workloads, "population",
        lambda f: rec.span("workloads.population", f, _population_extra(workloads)),
    )
    undo += wrap_method(
        multireader.CoverageMap, "random_overlap",
        lambda f: rec.span("multireader.coverage", f),
    )
    undo += wrap_function(
        multireader, "sketch_union_estimate", lambda f: rec.span("multireader.union", f)
    )
    undo += wrap_function(hll, "hll_registers", lambda f: rec.span("sketch.registers", f))
    for kernel in KERNELS:
        work = {"bfce_counts": _bfce_events, "hll_update": _hll_ids}.get(kernel)
        undo += wrap_function(
            _native, f"{kernel}_native",
            lambda f, k=kernel, w=work: rec.kernel(f"kernel.{k}", f, w),
        )
    undo += wrap_function(metrics, "inc", lambda f: rec.leaf("obs.inc", f))
    undo += wrap_function(metrics, "observe", lambda f: rec.leaf("obs.observe", f))
    undo += wrap_method(live.LiveTelemetry, "evaluate", lambda f: rec.leaf("obs.evaluate", f))
    return undo


def _population_extra(workloads):
    """Tag each ``population`` span as a cache miss or hit."""
    state = {"misses": workloads.population_cache_info().misses}

    def extra(args, kwargs, result):
        misses = workloads.population_cache_info().misses
        missed = misses != state["misses"]
        state["misses"] = misses
        return missed

    return extra


def kernel_metrics(spans) -> dict:
    """``kernel.<k>.calls|s|threads`` (+ computed work) over ``spans``."""
    out: dict = {}
    for kernel in KERNELS:
        calls = [s for s in spans if s[1] == f"kernel.{kernel}"]
        wall = sum(s[5] - s[4] for s in calls)
        cpu = sum(s[6][0] for s in calls)
        out[f"kernel.{kernel}.calls"] = len(calls)
        out[f"kernel.{kernel}.s"] = wall
        # Effective parallelism: process CPU seconds per wall second while
        # the kernel ran (concurrent Python threads inflate it slightly).
        out[f"kernel.{kernel}.threads"] = cpu / wall if wall > 0 else 0.0
        if kernel == "bfce_counts":
            out["kernel.bfce_counts.events"] = sum(s[6][1] for s in calls)
        if kernel == "hll_update":
            out["kernel.hll_update.ids"] = sum(s[6][1] for s in calls)
    return out


def cache_metrics(leaves: dict) -> dict:
    """``sweep.cache_*`` figures from ``TrialCache`` leaf totals."""
    miss = leaves.get("sweep.cache_load_miss", (0, 0.0))
    store = leaves.get("sweep.cache_store", (0, 0.0))

    def mean_us(calls, seconds):
        return 1e6 * seconds / calls if calls else 0.0

    return {
        "sweep.cache_load_miss_us": mean_us(*miss),
        "sweep.cache_store_us": mean_us(*store),
    }
