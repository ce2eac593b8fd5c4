"""Batched multi-trial engine for the baseline estimators (LOF, ZOE, SRC).

The serial :func:`~repro.experiments.runner.run_trials` re-hashes the whole
population once per round per trial.  This module hands one
:meth:`~repro.baselines.base.CardinalityEstimator.protocol` generator per
trial to the lockstep driver :func:`~repro.rfid.air.run_lockstep` — the
same driver, and the same protocol code, as the batched BFCE engine — so
each lockstep step's population-sized work runs as one batched kernel call:

* **LOF** — all ``T × rounds`` lottery frames are independent given their
  seeds, so the whole run is one streamed occupancy pass
  (:meth:`~repro.baselines.lof.LotteryFrames.run_batch`).
* **ZOE** — its LOF rough phase batches as above; the single-slot frames
  are per-trial Binomial draws from ZOE's own stream, advanced in lockstep.
* **SRC** — the rough lottery frame batches; each step's balanced frames
  of every active trial run as one
  :func:`~repro.baselines.framedaloha.aloha_empty_counts_batch` call, and a
  trial that trips a saturation retry simply yields its retry frame into
  the next step.

Bit-equivalence to the serial path holds because each trial keeps its own
event reader (seed stream and ledger) and the batched kernels reproduce
the serial hash values bit-for-bit; the adaptive rules are the serial
estimators' own generators.

Unsupported configurations — estimator subclasses (arbitrary overridden
behaviour) or lottery frames wider than the 64-bit occupancy word — are
reported by :func:`baseline_batchable`; callers fall back to the serial
per-trial path, which is always sound.  :class:`~repro.baselines.hll.HLL`
is batchable trivially: it is one fixed exchange whose population-sized
work is already one fused kernel call, so its trials simply run in turn.
"""

from __future__ import annotations

from typing import Sequence

from ..obs import metrics as _metrics
from ..obs.trace import event as _event, span as _span
from ..rfid.air import run_lockstep
from ..rfid.reader import Reader
from ..rfid.tags import TagPopulation
from .base import CardinalityEstimator, EstimationResult
from .hll import HLL
from .lof import LOF
from .src_protocol import SRC
from .zoe import ZOE

__all__ = [
    "baseline_batchable",
    "run_lof_batch",
    "run_zoe_batch",
    "run_src_batch",
    "run_baseline_trials_batched",
]

#: Widest lottery frame the uint64 occupancy kernel can represent.
_MAX_OCCUPANCY_BITS = 64


def baseline_batchable(estimator: CardinalityEstimator) -> bool:
    """Whether the lockstep engine can run ``estimator`` bit-identically.

    Exact-type checks, not ``isinstance``: a subclass may override any part
    of the protocol.  LOF and SRC additionally need their lottery frames to
    fit the 64-bit occupancy word (ZOE's internal rough LOF always uses the
    32-slot default).
    """
    if type(estimator) is LOF:
        return estimator.frame_slots <= _MAX_OCCUPANCY_BITS
    if type(estimator) is SRC:
        return estimator.rough_slots <= _MAX_OCCUPANCY_BITS
    return type(estimator) in (ZOE, HLL)


def _lockstep(
    estimator: CardinalityEstimator, population: TagPopulation, seeds: Sequence[int]
) -> list[EstimationResult]:
    readers = [Reader(population, seed=int(s)) for s in seeds]
    return run_lockstep([estimator.protocol(r) for r in readers], readers, population)


def run_lof_batch(
    estimator: LOF, population: TagPopulation, seeds: Sequence[int]
) -> list[EstimationResult]:
    """All LOF trials in lockstep; bit-identical to
    ``[estimator.estimate(population, seed=s) for s in seeds]``."""
    return _lockstep(estimator, population, seeds)


def run_zoe_batch(
    estimator: ZOE, population: TagPopulation, seeds: Sequence[int]
) -> list[EstimationResult]:
    """All ZOE trials in lockstep; bit-identical to the serial estimator."""
    return _lockstep(estimator, population, seeds)


def run_src_batch(
    estimator: SRC, population: TagPopulation, seeds: Sequence[int]
) -> list[EstimationResult]:
    """All SRC trials in lockstep; bit-identical to the serial estimator."""
    return _lockstep(estimator, population, seeds)


def _run_in_turn(
    estimator: CardinalityEstimator, population: TagPopulation, seeds: Sequence[int]
) -> list[EstimationResult]:
    return [estimator.estimate(population, seed=int(s)) for s in seeds]


_BATCH_RUNNERS = {
    LOF: run_lof_batch,
    ZOE: run_zoe_batch,
    SRC: run_src_batch,
    HLL: _run_in_turn,
}


def run_baseline_trials_batched(
    estimator: CardinalityEstimator,
    population: TagPopulation,
    *,
    trials: int,
    base_seed: int = 0,
    distribution: str = "",
):
    """Batched equivalent of :func:`~repro.experiments.runner.run_trials`.

    Returns the same :class:`~repro.experiments.runner.TrialRecord` list —
    same order, bit-identical estimates, errors, diagnostics and metered
    seconds — for any estimator :func:`baseline_batchable` accepts.  Each
    record carries ``extra["engine"] = "batched"`` so callers (and the sweep
    cache key) can tell which engine actually ran.
    """
    from ..experiments.runner import TrialRecord  # local import: runner routes here

    if trials <= 0:
        raise ValueError("trials must be positive")
    if not baseline_batchable(estimator):
        raise ValueError(
            f"{type(estimator).__name__} is not batchable; use the serial engine"
        )
    runner = _BATCH_RUNNERS[type(estimator)]
    _metrics.inc("engine.trials.batched", trials)
    with _span(
        "batch.baseline", estimator=type(estimator).__name__, trials=trials
    ):
        results = runner(estimator, population, range(base_seed, base_seed + trials))
    for t, result in enumerate(results):
        _event(
            "trial",
            engine="batched",
            estimator=result.estimator,
            seed=base_seed + t,
            n_hat=result.n_hat,
            elapsed_seconds=result.elapsed_seconds,
        )
    _metrics.inc(
        "ledger.elapsed_seconds_total", sum(r.elapsed_seconds for r in results)
    )
    n_true = population.size
    req = estimator.requirement
    return [
        TrialRecord(
            estimator=result.estimator,
            n_true=n_true,
            n_hat=result.n_hat,
            error=result.relative_error(n_true),
            seconds=result.elapsed_seconds,
            seed=base_seed + t,
            eps=req.eps,
            delta=req.delta,
            distribution=distribution,
            extra={**result.extra, "engine": "batched"},
        )
        for t, result in enumerate(results)
    ]
