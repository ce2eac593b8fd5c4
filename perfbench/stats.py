"""Pure helpers for the benchmark: percentiles and self time.

Kept free of I/O and of any ``repro`` import so the tests in
``perfbench/tests`` can pin the arithmetic the reported numbers rest on.
"""

from __future__ import annotations

#: Samples that must lie strictly beyond a reported percentile.
MIN_TAIL_SAMPLES = 10


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 1) of ascending ``sorted_values``.

    The rank is ``ceil(q * N)`` (1-based), computed in integer arithmetic
    at parts-per-million so ``0.99 * 1000`` is exactly rank 990.
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 1:
        raise ValueError(f"q must be in (0, 1], got {q}")
    n = len(sorted_values)
    ppm = round(q * 1_000_000)
    rank = -(-ppm * n // 1_000_000)
    return sorted_values[min(max(rank, 1), n) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q`` percentile."""
    ppm = round(q * 1_000_000)
    return n - min(max(-(-ppm * n // 1_000_000), 1), n)


def min_samples_for(q: float, beyond: int = MIN_TAIL_SAMPLES) -> int:
    """Smallest sample count leaving at least ``beyond`` samples past ``q``."""
    n = 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


def percentile_block(values: list[float], qs=(0.50, 0.99)) -> dict:
    """Nearest-rank percentiles with the sample count behind each.

    A percentile with fewer than :data:`MIN_TAIL_SAMPLES` samples beyond
    it is reported as ``None`` with ``"valid": False`` rather than as a
    number nobody should read.  ``inf`` entries (failed requests) sort last
    and so count as over any limit.
    """
    ordered = sorted(values)
    out: dict = {"samples": len(ordered)}
    for q in qs:
        key = f"p{round(q * 100)}"
        beyond = samples_beyond(len(ordered), q) if ordered else 0
        valid = bool(ordered) and beyond >= MIN_TAIL_SAMPLES
        out[key] = nearest_rank(ordered, q) if valid else None
        out[f"{key}_beyond"] = beyond
        out[f"{key}_valid"] = valid
    return out


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Overlapping and nested intervals are counted once, so a parent whose
    children ran concurrently (or were recorded at two nesting levels)
    never ends up with negative self time.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part its child spans cover."""
    return (end - start) - covered_length(children, start, end)
