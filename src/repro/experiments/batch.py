"""Batched Monte-Carlo engine: many BFCE trials in lockstep (bit-identical).

Monte-Carlo sweeps repeat the full BFCE protocol with distinct reader seeds
against one population.  The serial :func:`~repro.experiments.runner.run_bfce_trials`
pays the whole simulator stack — hashing, persistence, reduction — once per
frame per trial.  :class:`BatchBFCE` instead hands one
:meth:`~repro.core.bfce.BFCE.protocol` generator per trial to the lockstep
driver :func:`~repro.rfid.air.run_lockstep`, which executes each protocol
round's frames for all trials as a single
:func:`~repro.rfid.frames.run_bfce_frame_batch` call.

There is no second copy of the protocol here: the probe, rough, planning
and accurate-retry rules are the generators of :mod:`repro.core.probe`,
:mod:`repro.core.rough` and :mod:`repro.core.bfce`.  Bit-equivalence to
the serial path holds because each trial keeps its own event reader — a
``default_rng(seed)`` seed stream and a
:class:`~repro.timing.accounting.TimeLedger`, fed exactly as the serial
engine feeds them — while the batched frame kernel reproduces the serial
kernel slot-for-slot.

Serial/batched decision matrix (see DESIGN.md §6):

* deterministic channel (the paper's perfect channel) → **batched** engine;
* stateful/noisy channel → **serial** per-trial path (the engine falls back
  automatically);
* multi-core hosts → this batched engine on threaded native kernels; sweeps
  over many points fan out across processes through
  :func:`~repro.experiments.sweep.run_sweep` (``max_workers=…``).
"""

from __future__ import annotations

from ..core.accuracy import AccuracyRequirement
from ..core.bfce import BFCE, BFCEResult
from ..core.config import BFCEConfig, DEFAULT_CONFIG
from ..obs import metrics as _metrics
from ..obs.events import engine_fallback, ledger_crosscheck
from ..obs.trace import event as _event, ledger_phase_cums, span as _span
from ..rfid.air import run_lockstep
from ..rfid.channel import Channel, PerfectChannel
from ..rfid.reader import Reader
from ..rfid.tags import TagPopulation

__all__ = ["BatchBFCE", "run_bfce_trials_batched", "batching_is_sound"]


def batching_is_sound(channel: Channel | None) -> bool:
    """Whether the lockstep engine may batch frames under ``channel``.

    Batching executes every active trial's frame in one kernel call, so the
    channel must be a pure function of the slot counts.  Exactly the perfect
    channel qualifies (a subclass could override ``observe`` with stateful
    noise, hence the exact-type check); anything else drops to the serial
    per-trial path where the RNG consumption order is trivially preserved.
    """
    return channel is None or type(channel) is PerfectChannel


class BatchBFCE(BFCE):
    """A :class:`~repro.core.bfce.BFCE` that runs many seeds in lockstep.

    Example
    -------
    >>> from repro import TagPopulation, uniform_ids
    >>> from repro.experiments.batch import BatchBFCE
    >>> pop = TagPopulation(uniform_ids(50_000, seed=1))
    >>> results = BatchBFCE().estimate_many(pop, seeds=range(4))
    >>> len(results)
    4
    """

    def __init__(
        self,
        config: BFCEConfig = DEFAULT_CONFIG,
        requirement: AccuracyRequirement | None = None,
    ) -> None:
        if config.pn_denom != 1024:
            # The fused event kernels hash tags against the paper's fixed
            # 1/1024 grid; a finer config grid would desync tag responses
            # from the estimator's p_of().  Scale configs are analytic-only.
            raise ValueError(
                f"batched event engine supports only pn_denom=1024, got "
                f"{config.pn_denom}; use engine='analytic' for scaled grids"
            )
        super().__init__(config, requirement)

    def estimate_many(
        self,
        population: TagPopulation,
        seeds,
        *,
        channel: Channel | None = None,
    ) -> list[BFCEResult]:
        """Estimate once per reader seed; results match serial bit-for-bit.

        Equivalent to ``[self.estimate(population, seed=s, channel=channel)
        for s in seeds]``.  When ``channel`` is unsound for batching (see
        :func:`batching_is_sound`) that serial expression is literally what
        runs.
        """
        seed_list = [int(s) for s in seeds]
        if not batching_is_sound(channel):
            return [self.estimate(population, seed=s, channel=channel) for s in seed_list]
        _metrics.inc("engine.trials.batched", len(seed_list))
        with _span("batch.estimate_many", engine="batched", trials=len(seed_list)):
            readers = [Reader(population, seed=s) for s in seed_list]
            results = run_lockstep([self.protocol(r) for r in readers], readers, population)
        for seed, result in zip(seed_list, results):
            phase_ledger = ledger_phase_cums(result.ledger)
            ledger_crosscheck("bfce.batched", result.elapsed_seconds, phase_ledger)
            _event(
                "trial",
                engine="batched",
                seed=seed,
                n_hat=result.n_hat,
                pn_probe=result.pn_probe,
                pn_optimal=result.pn_optimal,
                rho_final=result.rho_final,
                guarantee_met=result.guarantee_met,
                probe_rounds=result.probe_rounds,
                elapsed_seconds=result.elapsed_seconds,
                phase_ledger=phase_ledger,
            )
        return results


def run_bfce_trials_batched(
    population: TagPopulation,
    *,
    trials: int,
    eps: float = 0.05,
    delta: float = 0.05,
    base_seed: int = 0,
    distribution: str = "",
    config: BFCEConfig = DEFAULT_CONFIG,
    channel: Channel | None = None,
):
    """Batched equivalent of :func:`~repro.experiments.runner.run_bfce_trials`.

    Returns the same :class:`~repro.experiments.runner.TrialRecord` list —
    same order, bit-identical estimates, errors and metered seconds — while
    executing each lockstep protocol round as one batched kernel call.
    ``extra["engine"]`` records which engine actually ran: ``"batched"``
    normally, ``"serial"`` when the channel makes batching unsound and the
    per-trial fallback executes instead.
    """
    from .runner import TrialRecord  # local import: runner routes back here

    if trials <= 0:
        raise ValueError("trials must be positive")
    engine_ran = "batched"
    if not batching_is_sound(channel):
        engine_ran = "serial"
        engine_fallback(
            "run_bfce_trials_batched",
            requested="batched",
            actual="serial",
            reason=f"channel {type(channel).__name__} is unsound for batching",
        )
    engine = BatchBFCE(config=config, requirement=AccuracyRequirement(eps, delta))
    results = engine.estimate_many(
        population, seeds=range(base_seed, base_seed + trials), channel=channel
    )
    n_true = population.size
    return [
        TrialRecord(
            estimator="BFCE",
            n_true=n_true,
            n_hat=result.n_hat,
            error=result.relative_error(n_true),
            seconds=result.elapsed_seconds,
            seed=base_seed + t,
            eps=eps,
            delta=delta,
            distribution=distribution,
            extra={
                "n_low": result.n_low,
                "pn_optimal": result.pn_optimal,
                "guarantee_met": result.guarantee_met,
                "engine": engine_ran,
            },
        )
        for t, result in enumerate(results)
    ]
