"""Live telemetry: windowed metrics, per-zone SLOs and ops rendering.

The base registry (:mod:`repro.obs.metrics`) is lifetime-cumulative: good
for post-hoc folds, useless for "what is the p99 *right now*" under load.
This module derives time windows from it by **snapshot differencing** and
leaves the write path alone: ``inc``/``observe`` stay one locked dict
update whether or not telemetry is attached.  Per :class:`WindowSpec`
(default 16×1 s and 12×10 s slots) a :class:`RingWindow` keeps the
previous ``metrics.snapshot()`` and a ring of per-slot deltas.

**Rolling.**  The server's evaluator ticks once per smallest slot width,
and every windowed read first rolls each ring whose epoch has advanced:
one shared snapshot minus the ring's previous one becomes the delta of
slot ``epoch(now) − 1``, and deltas that left the window fold into an
*expired* accumulator.  Slot membership is thus decided at the tick, not
at the write: an evaluator stall of k slots puts its whole backlog in the
last completed slot.  Reads that include the current slot add its pending
part, ``live − previous``.

**Deltas.**  Counters subtract; histogram count, sum and log buckets
subtract because :func:`metrics.merge_histogram` merges by addition, so
windowed quantiles keep the registry's ±4.4 % bound.  Min/max cannot
subtract: a lifetime extremum that moved during the slot is the slot's,
exactly; otherwise the geometric midpoint of the slot's lowest/highest
non-empty bucket, clamped into the lifetime envelope, stands in (±4.4 %).

**Conservation.**  ``expired + deltas + pending`` equals the lifetime
change since attach; :meth:`LiveTelemetry.reconcile` checks it
**bit-exactly** per counter, so a roll that drops or double-counts a slot
fails the benchmark and CI.

**SLOs.**  A declarative :class:`SLOSpec` is judged once per completed
slot, per scope (``global`` plus one per zone in the metric stream), by
an error-budget :class:`SLOTracker`: at the defaults (budget 0.125 over
8 slots) the *second* bad slot in the look-back pushes the burn rate past
1.0 and fires :func:`repro.obs.events.slo_breach`, so a latency spike
alerts within two windows and single-slot blips never page.

**Rendering.**  :func:`render_prometheus` emits the classic text
exposition; :func:`render_top` draws the ``repro-rfid obs top``
dashboard from one ``metrics.watch`` payload.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import asdict, dataclass, fields

from . import events as _events
from . import metrics as _metrics

__all__ = [
    "DEFAULT_SLO",
    "DEFAULT_WINDOWS",
    "LiveTelemetry",
    "RingWindow",
    "SLOSpec",
    "SLOTracker",
    "WindowSpec",
    "render_prometheus",
    "render_top",
    "split_zone_metric",
    "zone_metric",
]


@dataclass(frozen=True)
class WindowSpec:
    """One ring-buffer window: ``slots`` slots of ``width_seconds`` each."""

    name: str
    slots: int
    width_seconds: float

    def __post_init__(self) -> None:
        if self.slots < 2:
            raise ValueError("a ring window needs at least 2 slots")
        if self.width_seconds <= 0:
            raise ValueError("slot width must be positive")


#: Default rings: 16 s of 1 s resolution and 2 min of 10 s resolution.
DEFAULT_WINDOWS = (
    WindowSpec("1s", 16, 1.0),
    WindowSpec("10s", 12, 10.0),
)


def _bucket_mid(key: str) -> float:
    """Geometric midpoint of one sparse log bucket (0 for ``"lo"``)."""
    if key == _metrics._BUCKET_NONPOS:
        return 0.0
    return math.exp((int(key) + 0.5) * _metrics._BUCKET_LOG_BASE)


def _hist_delta(cur: dict, prev: dict | None) -> dict | None:
    """Histogram ``cur − prev`` (``None`` when no sample landed between).

    Count, sum and buckets subtract.  An extremum the lifetime envelope
    moved to is exact; an unmoved one is estimated from the delta's
    lowest/highest bucket midpoint, clamped into the lifetime envelope.
    """
    if prev is None:
        return _metrics._copy_hist(cur)
    count = cur["count"] - prev["count"]
    if count <= 0:
        return None
    old = prev["buckets"]
    buckets = {
        key: n - old.get(key, 0)
        for key, n in cur["buckets"].items()
        if n != old.get(key, 0)
    }
    lo, hi = cur["min"], cur["max"]
    moved_lo = lo < prev["min"]
    mids = sorted(_bucket_mid(key) for key in buckets)
    slot_lo = lo if moved_lo else min(max(mids[0], lo), hi)
    slot_hi = hi if hi > prev["max"] else min(max(mids[-1], lo), hi)
    if slot_lo > slot_hi:  # one exact extremum, one estimate in its bucket
        slot_lo = slot_hi = lo if moved_lo else hi
    return {"count": count, "sum": cur["sum"] - prev["sum"],
            "min": slot_lo, "max": slot_hi, "buckets": buckets}


def _delta(cur: dict, prev: dict) -> tuple[dict, dict]:
    """Counter and histogram change from snapshot ``prev`` to ``cur``."""
    old = prev["counters"]
    counters = {
        name: value - old.get(name, 0)
        for name, value in cur["counters"].items()
        if value != old.get(name, 0)
    }
    hists = {}
    for name, hist in cur["histograms"].items():
        delta = _hist_delta(hist, prev["histograms"].get(name))
        if delta is not None:
            hists[name] = delta
    return counters, hists


class RingWindow:
    """One window: the previous registry snapshot plus per-slot deltas.

    ``epoch`` is the open slot.  :meth:`roll` closes it: ``snap − prev``
    becomes the delta of slot ``epoch(now) − 1``, and deltas older than
    the window fold into the expired accumulator, so
    ``expired + deltas == prev − attach-time snapshot`` at all times.
    Reads assume a fresh roll; their ``pending`` argument is the open
    slot's ``(counters, hists)`` delta, or ``None`` to leave it out.
    """

    def __init__(self, spec: WindowSpec, snap: dict, now: float) -> None:
        self.spec = spec
        self.prev = snap
        self.epoch = self.first_epoch = self.epoch_of(now)
        self.deltas: deque[tuple[int, dict, dict]] = deque()
        self.expired: tuple[dict, dict] = ({}, {})

    def epoch_of(self, now: float) -> int:
        """The slot epoch containing monotonic timestamp ``now``."""
        return int(now // self.spec.width_seconds)

    def roll(self, now: float, snap: dict) -> None:
        """Close the open slot with ``snap`` and expire old deltas."""
        epoch = self.epoch_of(now)
        counters, hists = _delta(snap, self.prev)
        if counters or hists:
            self.deltas.append((epoch - 1, counters, hists))
        self.prev, self.epoch = snap, epoch
        expired_counters, expired_hists = self.expired
        while self.deltas and self.deltas[0][0] <= epoch - self.spec.slots:
            _, counters, hists = self.deltas.popleft()
            for name, value in counters.items():
                expired_counters[name] = expired_counters.get(name, 0) + value
            for name, hist in hists.items():
                expired_hists[name] = _metrics.merge_histogram(
                    expired_hists.get(name), hist
                )

    def _slots(self, pending):
        yield from self.deltas
        if pending is not None:
            yield (self.epoch, *pending)

    def count(self, name: str, pending=None, *, since_attach: bool = False) -> float:
        """Counter ``name`` summed over the window (plus the expired fold
        with ``since_attach``)."""
        total = self.expired[0].get(name, 0) if since_attach else 0
        return total + sum(
            counters.get(name, 0) for _, counters, _ in self._slots(pending)
        )

    def rate(self, name: str) -> float:
        """Per-second rate of counter ``name`` over *completed* slots: the
        open slot would understate it, and the divisor counts only slots
        since attach (clamped to the ring) so a fresh window is not diluted.
        """
        covered = max(1, min(self.spec.slots - 1, self.epoch - self.first_epoch))
        return self.count(name) / (covered * self.spec.width_seconds)

    def histogram(
        self, name: str, pending=None, *, since_attach: bool = False
    ) -> dict | None:
        """Histogram ``name`` merged over the window by bucket addition
        (plus the expired fold with ``since_attach``)."""
        expired = self.expired[1].get(name) if since_attach else None
        merged = None if expired is None else _metrics._copy_hist(expired)
        for _, _, hists in self._slots(pending):
            hist = hists.get(name)
            if hist is not None:
                merged = _metrics.merge_histogram(merged, hist)
        return merged

    def names(self, pending=None) -> set[str]:
        """Every metric name with data since attach."""
        names = set(self.expired[0]) | set(self.expired[1])
        for _, counters, hists in self._slots(pending):
            names.update(counters)
            names.update(hists)
        return names

    def slot_stats(self, epoch: int) -> tuple[dict, dict]:
        """Counters + histograms of completed slot ``epoch`` (empty when
        it held nothing or has expired)."""
        for slot_epoch, counters, hists in self.deltas:
            if slot_epoch == epoch:
                return counters, hists
        return {}, {}


# ----------------------------------------------------------------------
# SLOs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SLOSpec:
    """Declarative per-window service-level objectives.

    Every objective is optional (``None`` disables it).  ``budget`` is the
    fraction of look-back slots allowed to violate before the burn rate
    reaches 1.0; with the defaults (0.125 over ``burn_slots=8``) the
    second bad slot in the look-back pushes burn past 1.0 and alerts.
    """

    p99_ms: float | None = None
    max_shed_rate: float | None = None
    max_fallback_rate: float | None = None
    max_innovation_z: float | None = None
    window: str = "1s"
    budget: float = 0.125
    burn_slots: int = 8

    def __post_init__(self) -> None:
        if not 0 < self.budget <= 1:
            raise ValueError("budget must be in (0, 1]")
        if self.burn_slots < 1:
            raise ValueError("burn_slots must be >= 1")

    @classmethod
    def from_dict(cls, raw: dict) -> "SLOSpec":
        if not isinstance(raw, dict):
            raise ValueError("SLO spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown SLO field(s): {unknown}")
        return cls(**raw)

    def to_dict(self) -> dict:
        return asdict(self)


#: Loose production defaults for ``repro-rfid serve``: alert on a p99
#: past 250 ms, sustained shedding of >half the arrivals, any engine
#: fallback, or tracker innovations past 6 measurement sigmas.
DEFAULT_SLO = SLOSpec(
    p99_ms=250.0,
    max_shed_rate=0.5,
    max_fallback_rate=0.0,
    max_innovation_z=6.0,
)


class SLOTracker:
    """Error-budget accounting for one scope (global or one zone).

    Feed one completed slot's stats at a time; the tracker keeps a
    boolean verdict ring of the last ``burn_slots`` slots.  Idle slots
    are good slots — the budget recovers while a scope is quiet.
    """

    def __init__(self, spec: SLOSpec, scope: str = "global") -> None:
        self.spec = spec
        self.scope = scope
        self._verdicts: deque[bool] = deque(maxlen=spec.burn_slots)

    @property
    def burn_rate(self) -> float:
        """Budget burn over the look-back: 1.0 = budget exactly spent."""
        if not self._verdicts:
            return 0.0
        bad = sum(1 for v in self._verdicts if v)
        return bad / self._verdicts.maxlen / self.spec.budget

    def evaluate_slot(self, stats: dict) -> dict:
        """Judge one completed slot and update the burn window.

        ``stats`` keys (all optional): ``requests``, ``shed``,
        ``fallbacks`` (counts), ``p99_ms`` (float or None),
        ``innovation_z`` (max z-score seen in the slot, or None).
        Returns a status dict with the violations, the new burn rate and
        whether this slot *breaches* (bad slot AND burn > 1.0).
        """
        requests = float(stats.get("requests") or 0)

        def per_request(key: str) -> float:
            # No admitted requests: any shed/fallback at all reads as 100 %.
            n = float(stats.get(key) or 0)
            return n / requests if requests > 0 else (1.0 if n else 0.0)

        observed = {
            "p99_ms": stats.get("p99_ms"),
            "max_shed_rate": per_request("shed"),
            "max_fallback_rate": per_request("fallbacks"),
            "max_innovation_z": stats.get("innovation_z"),
        }
        violations = [
            {"objective": objective, "observed": value, "target": target}
            for objective, value in observed.items()
            if (target := getattr(self.spec, objective)) is not None
            and value is not None
            and value > target
        ]
        bad = bool(violations)
        self._verdicts.append(bad)
        burn = self.burn_rate
        return {
            "scope": self.scope,
            "bad": bad,
            "violations": violations,
            "burn_rate": burn,
            "breached": bad and burn > 1.0,
        }


# ----------------------------------------------------------------------
# zone metric naming
# ----------------------------------------------------------------------
_ZONE_PREFIX = "service.zone."
_ZONE_SUFFIXES = ("requests", "shed", "seconds", "innovation_z")


def split_zone_metric(name: str) -> tuple[str, str] | None:
    """Split ``service.zone.<zone>.<suffix>`` into ``(zone, suffix)``.

    Zone names may themselves contain dots, so the split anchors on the
    known per-zone suffix set rather than the last dot.  Returns ``None``
    for non-zone metrics.
    """
    if not name.startswith(_ZONE_PREFIX):
        return None
    rest = name[len(_ZONE_PREFIX):]
    for suffix in _ZONE_SUFFIXES:
        if rest.endswith("." + suffix):
            zone = rest[: -len(suffix) - 1]
            if zone:
                return zone, suffix
    return None


def zone_metric(zone: str, suffix: str) -> str:
    """The per-zone metric name for one of the known suffixes."""
    if suffix not in _ZONE_SUFFIXES:
        raise ValueError(f"unknown zone metric suffix {suffix!r}")
    return f"{_ZONE_PREFIX}{zone}.{suffix}"


# ----------------------------------------------------------------------
# telemetry front
# ----------------------------------------------------------------------
class LiveTelemetry:
    """The service's live-telemetry front: windows + SLO trackers + alerts.

    Holds one :class:`RingWindow` per :class:`WindowSpec`, rolled from
    registry snapshots between :meth:`attach` and :meth:`detach`, and
    evaluates the configured :class:`SLOSpec` once per completed slot of
    the SLO window — per scope: ``global`` (the whole server) plus one
    scope per zone observed in the metric stream.  Breaches fire
    :func:`repro.obs.events.slo_breach` and land in the bounded
    :attr:`alerts` deque that ``metrics.watch`` / ``obs top`` surface.
    Rolls and reads belong to one thread (the server's event loop);
    writers on any thread reach the windows only through the registry.
    """

    def __init__(
        self,
        *,
        slo: SLOSpec | None = None,
        windows: tuple[WindowSpec, ...] = DEFAULT_WINDOWS,
        clock=time.monotonic,
    ) -> None:
        if not windows:
            raise ValueError("at least one window spec is required")
        self.slo = slo
        self._clock = clock
        self._specs = tuple(windows)
        self._attached = False
        self._last_epoch: int | None = None
        self._trackers: dict[str, SLOTracker] = {}
        self._status: dict[str, dict] = {}
        self.alerts: deque[dict] = deque(maxlen=64)
        self._start({"counters": {}, "gauges": {}, "histograms": {}})

    def _start(self, snap: dict) -> None:
        """Fresh rings and counter baseline from registry snapshot ``snap``
        (also what the rings see until the first attach)."""
        now = self._clock()
        self._baseline = snap["counters"]
        self._frozen = snap
        self.windows = {s.name: RingWindow(s, snap, now) for s in self._specs}

    def attach(self) -> None:
        """Start windowing the metrics stream (idempotent)."""
        if not self._attached:
            self._start(_metrics.snapshot())
            self._attached = True

    def detach(self) -> None:
        """Stop windowing: writes after this never reach the rings."""
        if self._attached:
            self._frozen = _metrics.snapshot()
            self._attached = False

    def set_slo(self, slo: SLOSpec | None) -> None:
        """Swap the SLO spec; burn windows and alert history restart."""
        self.slo = slo
        self._trackers = {}
        self._status = {}
        self._last_epoch = None

    # ------------------------------------------------------------------
    def _roll(self, now: float) -> dict:
        """Roll every ring whose epoch has advanced, from one snapshot of
        the registry (frozen once detached); return that snapshot."""
        snap = _metrics.snapshot() if self._attached else self._frozen
        for ring in self.windows.values():
            if ring.epoch_of(now) > ring.epoch:
                ring.roll(now, snap)
        return snap

    def _ring(self, window: str | None) -> RingWindow:
        key = self._specs[0].name if window is None else window
        try:
            return self.windows[key]
        except KeyError:
            raise KeyError(
                f"unknown window {window!r} (have {sorted(self.windows)})"
            ) from None

    def rate(self, name: str, window: str | None = None) -> float:
        """Per-second rate of counter ``name`` over completed slots."""
        ring = self._ring(window)
        self._roll(self._clock())
        return ring.rate(name)

    # ------------------------------------------------------------------
    def _tracker(self, scope: str) -> SLOTracker:
        tracker = self._trackers.get(scope)
        if tracker is None:
            tracker = self._trackers[scope] = SLOTracker(self.slo, scope)
        return tracker

    @staticmethod
    def _scope_stats(scope: str, counters: dict, hists: dict) -> dict:
        """One slot's SLO inputs for a scope, from the slot's raw data."""
        zone = scope != "global"

        def metric(suffix: str, global_name: str) -> str:
            return zone_metric(scope, suffix) if zone else global_name

        seconds = hists.get(metric("seconds", "service.request.seconds"))
        p99 = _metrics.quantile(seconds, 0.99)
        z_hist = hists.get(zone_metric(scope, "innovation_z")) if zone else None
        return {
            "requests": counters.get(metric("requests", "service.requests"), 0),
            "shed": counters.get(metric("shed", "service.admission.shed"), 0),
            "fallbacks": 0 if zone else counters.get("engine.fallback", 0),
            "p99_ms": None if p99 is None else p99 * 1000.0,
            "innovation_z": None if z_hist is None else z_hist.get("max"),
        }

    def evaluate(self, now: float | None = None) -> list[dict]:
        """Roll the windows, then judge every completed-but-unjudged slot.

        Call once per smallest slot width (the server's telemetry loop
        does); returns the new alerts.  The roll decides slot membership,
        so slots that completed while the evaluator was stalled are
        empty — their data sits in the last completed slot, judged from
        whatever is still live — and slots already expired from the ring
        are judged as idle (good), which only ever *under*-alerts after a
        long evaluator stall.
        """
        if now is None:
            now = self._clock()
        self._roll(now)
        if self.slo is None:
            return []
        ring = self._ring(self.slo.window)
        current = ring.epoch_of(now)
        if self._last_epoch is None:
            # First evaluation: everything before the current slot is
            # pre-history, not an unjudged backlog.
            self._last_epoch = current - 1
        new_alerts: list[dict] = []
        for epoch in range(self._last_epoch + 1, current):
            counters, hists = ring.slot_stats(epoch)
            scopes = {"global"} | {p[0] for p in map(split_zone_metric, counters) if p}
            # Zones with a burn history stay under evaluation even in
            # idle slots, so their budgets recover instead of freezing.
            scopes.update(self._trackers)
            for scope in sorted(scopes):
                stats = self._scope_stats(scope, counters, hists)
                status = self._tracker(scope).evaluate_slot(stats)
                status["epoch"] = epoch
                self._status[scope] = status
                if status["breached"]:
                    for violation in status["violations"]:
                        alert = _events.slo_breach(
                            scope,
                            **violation,
                            burn_rate=status["burn_rate"],
                            window=self.slo.window,
                        )
                        alert["epoch"] = epoch
                        self.alerts.append(alert)
                        new_alerts.append(alert)
        self._last_epoch = max(self._last_epoch, current - 1)
        return new_alerts

    # ------------------------------------------------------------------
    def reconcile(self, names: list[str]) -> dict[str, dict]:
        """Windowed totals vs lifetime counter deltas, per counter name.

        ``exact`` is a bit-exact ``==`` between the default ring's own
        accumulation (expired fold + deltas + pending) and the lifetime
        delta since attach, both read from one snapshot — a roll that
        dropped or double-counted a slot breaks it.
        """
        snap = self._roll(self._clock())
        ring = self._ring(None)
        pending = _delta(snap, ring.prev)
        out: dict[str, dict] = {}
        for name in names:
            lifetime = snap["counters"].get(name, 0) - self._baseline.get(name, 0)
            windowed = ring.count(name, pending, since_attach=True)
            out[name] = {
                "lifetime_delta": lifetime,
                "windowed": windowed,
                "exact": lifetime == windowed,
            }
        return out

    # ------------------------------------------------------------------
    def watch_snapshot(self) -> dict:
        """One ``metrics.watch`` tick payload: global + per-zone rows."""
        snap = self._roll(self._clock())
        ring = self._ring(None)
        pending = _delta(snap, ring.prev)

        def count(name: str) -> float:
            return ring.count(name, pending)

        def latency(name: str) -> dict:
            hist = ring.histogram(name, pending)
            p50, p99 = (_metrics.quantile(hist, q) for q in (0.5, 0.99))
            return {
                "p50_ms": None if p50 is None else p50 * 1000.0,
                "p99_ms": None if p99 is None else p99 * 1000.0,
            }

        windows = sorted(self.windows)
        hit_m = count("service.cache.memory_hit")
        attempts = hit_m + count("service.engine.calls")
        hits = hit_m + count("service.cache.disk_hit")
        payload = {
            "wall": time.time(),
            "windows": windows,
            "global": {
                "rps": {w: self.windows[w].rate("service.requests") for w in windows},
                **latency("service.request.seconds"),
                "requests": count("service.requests"),
                "shed": count("service.admission.shed"),
                "fallbacks": count("engine.fallback"),
                "cache_hit_rate": (hits / attempts) if attempts else None,
                "burn_rate": self._status.get("global", {}).get("burn_rate", 0.0),
            },
            "zones": [],
            "slo": None if self.slo is None else self.slo.to_dict(),
            "alerts": list(self.alerts)[-8:],
        }
        zones = {p[0] for p in map(split_zone_metric, ring.names(pending)) if p}
        for zone in sorted(zones):
            requests = count(zone_metric(zone, "requests"))
            shed = count(zone_metric(zone, "shed"))
            z_hist = ring.histogram(zone_metric(zone, "innovation_z"), pending)
            payload["zones"].append(
                {
                    "zone": zone,
                    "rps": ring.rate(zone_metric(zone, "requests")),
                    "requests": requests,
                    "shed": shed,
                    "shed_rate": (shed / requests) if requests else 0.0,
                    **latency(zone_metric(zone, "seconds")),
                    "innovation_z": None if z_hist is None else z_hist.get("max"),
                    "burn_rate": self._status.get(zone, {}).get("burn_rate", 0.0),
                }
            )
        return payload

    def summary(self) -> dict:
        """Compact block for ``health`` responses."""
        return {
            "windows": {
                s.name: {"slots": s.slots, "width_seconds": s.width_seconds}
                for s in self._specs
            },
            "slo": None if self.slo is None else self.slo.to_dict(),
            "alerts": len(self.alerts),
            "burn_rates": {
                scope: status.get("burn_rate", 0.0)
                for scope, status in sorted(self._status.items())
            },
        }


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _prom_name(name: str, namespace: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    return f"{namespace}_{safe}"


def _prom_value(value) -> str:
    if value is None:
        return "NaN"
    return repr(float(value))


def render_prometheus(
    snapshot: dict, *, live: "LiveTelemetry | None" = None, namespace: str = "repro"
) -> str:
    """Prometheus-style text exposition of one metrics snapshot.

    Counters render as ``<name>_total``; histograms as summaries (count,
    sum and ``{quantile="0.5|0.9|0.99"}`` series read through
    :func:`metrics.quantile`).  Per-zone metrics
    (``service.zone.<z>.<suffix>``) are re-shaped into one shared series
    per suffix with a ``zone`` label.  When ``live`` is given, windowed
    request rates are appended as gauges with a ``window`` label.
    """
    lines: list[str] = []

    def emit(metric: str, kind: str, samples: list[tuple[str, object]]) -> None:
        lines.append(f"# TYPE {metric} {kind}")
        for labels, value in samples:
            lines.append(f"{metric}{labels} {_prom_value(value)}")

    zone_counters: dict[str, list[tuple[str, object]]] = {}
    for name in sorted(snapshot.get("counters") or {}):
        value = snapshot["counters"][name]
        parsed = split_zone_metric(name)
        if parsed is not None:
            zone, suffix = parsed
            metric = _prom_name(f"service.zone.{suffix}", namespace) + "_total"
            zone_counters.setdefault(metric, []).append(
                (f'{{zone="{zone}"}}', value)
            )
        else:
            emit(_prom_name(name, namespace) + "_total", "counter", [("", value)])
    for metric in sorted(zone_counters):
        emit(metric, "counter", zone_counters[metric])

    for name in sorted(snapshot.get("gauges") or {}):
        emit(_prom_name(name, namespace), "gauge", [("", snapshot["gauges"][name])])

    zone_hists: dict[str, list[tuple[str, dict]]] = {}
    plain_hists: list[tuple[str, dict]] = []
    for name in sorted(snapshot.get("histograms") or {}):
        hist = snapshot["histograms"][name]
        parsed = split_zone_metric(name)
        if parsed is not None:
            zone, suffix = parsed
            metric = _prom_name(f"service.zone.{suffix}", namespace)
            zone_hists.setdefault(metric, []).append((f'zone="{zone}"', hist))
        else:
            plain_hists.append((_prom_name(name, namespace), hist))

    def emit_summary(metric: str, series: list[tuple[str, dict]]) -> None:
        lines.append(f"# TYPE {metric} summary")
        for label, hist in series:
            prefix = f"{{{label}," if label else "{"
            for q in (0.5, 0.9, 0.99):
                value = _metrics.quantile(hist, q)
                lines.append(f'{metric}{prefix}quantile="{q}"}} {_prom_value(value)}')
            tail = f'{{{label}}}' if label else ""
            lines.append(f"{metric}_sum{tail} {_prom_value(hist.get('sum', 0.0))}")
            lines.append(f"{metric}_count{tail} {_prom_value(hist.get('count', 0))}")

    for metric, hist in plain_hists:
        emit_summary(metric, [("", hist)])
    for metric in sorted(zone_hists):
        emit_summary(metric, zone_hists[metric])

    if live is not None:
        metric = _prom_name("service.requests.rate", namespace)
        lines.append(f"# TYPE {metric} gauge")
        for window in sorted(live.windows):
            rate = live.rate("service.requests", window)
            lines.append(f'{metric}{{window="{window}"}} {_prom_value(rate)}')
    return "\n".join(lines) + "\n"


def _fmt(value, *, digits: int = 1, unit: str = "") -> str:
    if value is None:
        return "-"
    return f"{value:.{digits}f}{unit}"


def render_top(payload: dict) -> str:
    """Render one ``metrics.watch`` payload as the ``obs top`` dashboard."""
    g = payload.get("global") or {}
    rps = g.get("rps") or {}
    head = [
        "repro-rfid obs top",
        "",
        "global   "
        + "  ".join(
            f"req/s[{window}] {_fmt(rps.get(window))}" for window in sorted(rps)
        )
        + f"  p50 {_fmt(g.get('p50_ms'), digits=2, unit='ms')}"
        + f"  p99 {_fmt(g.get('p99_ms'), digits=2, unit='ms')}",
        "         "
        + f"cache {_fmt(None if g.get('cache_hit_rate') is None else g['cache_hit_rate'] * 100.0, unit='%')}"
        + f"  shed {g.get('shed', 0):g}"
        + f"  fallbacks {g.get('fallbacks', 0):g}"
        + f"  burn {_fmt(g.get('burn_rate'), digits=2)}",
        "",
    ]
    rows = [
        f"{'zone':<12} {'req/s':>8} {'p50ms':>8} {'p99ms':>8} "
        f"{'shed%':>7} {'innov_z':>8} {'burn':>6}"
    ]
    for zone in payload.get("zones") or []:
        rows.append(
            f"{zone['zone']:<12} {_fmt(zone.get('rps')):>8} "
            f"{_fmt(zone.get('p50_ms'), digits=2):>8} "
            f"{_fmt(zone.get('p99_ms'), digits=2):>8} "
            f"{_fmt(zone.get('shed_rate', 0.0) * 100.0):>7} "
            f"{_fmt(zone.get('innovation_z'), digits=2):>8} "
            f"{_fmt(zone.get('burn_rate'), digits=2):>6}"
        )
    if len(rows) == 1:
        rows.append("(no zone traffic in window)")
    alerts = payload.get("alerts") or []
    tail = ["", f"alerts ({len(alerts)} recent)"]
    if alerts:
        for alert in alerts:
            tail.append(
                f"  [{alert.get('scope')}] {alert.get('objective')} "
                f"observed {_fmt(alert.get('observed'), digits=3)} "
                f"> target {_fmt(alert.get('target'), digits=3)} "
                f"(burn {_fmt(alert.get('burn_rate'), digits=2)}, "
                f"window {alert.get('window')})"
            )
    else:
        tail.append("  none")
    return "\n".join(head + rows + tail) + "\n"
