"""Batched Monte-Carlo engine: many BFCE trials in lockstep (bit-identical).

Monte-Carlo sweeps repeat the full BFCE protocol with distinct reader seeds
against one population.  The serial :func:`~repro.experiments.runner.run_bfce_trials`
pays the whole simulator stack — hashing, persistence, reduction — once per
frame per trial.  :class:`BatchBFCE` instead advances **all trials in
lockstep**, one protocol round at a time, and executes each round's frames as
a single :func:`~repro.rfid.frames.run_bfce_frame_batch` call.

Bit-equivalence to the serial path is the hard contract, not an
approximation.  It holds because each trial keeps

* its own seed stream — a ``default_rng(seed)`` consumed exactly like the
  serial :class:`~repro.rfid.reader.Reader`'s (``fresh_seeds`` draws only),
* its own :class:`~repro.timing.accounting.TimeLedger`, fed the identical
  message sequence (so ``elapsed_seconds`` sums the same floats in the same
  order), and
* its own adaptive state (probe numerator, retry counters), updated by the
  same rules as :mod:`repro.core.probe`, :mod:`repro.core.rough` and
  :meth:`repro.core.bfce.BFCE._accurate_frame` —

while the batched frame kernel itself reproduces the serial kernel
slot-for-slot.

Serial/batched decision matrix (see DESIGN.md §6):

* deterministic channel (the paper's perfect channel) → **batched** engine;
* stateful/noisy channel or a custom estimator factory → **serial** per-trial
  path (the engine falls back automatically);
* multi-core hosts → this batched engine on threaded native kernels; sweeps
  over many points fan out across processes through
  :func:`~repro.experiments.sweep.run_sweep` (``max_workers=…``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.accuracy import AccuracyRequirement
from ..core.bfce import BFCE, BFCEResult
from ..core.config import BFCEConfig, DEFAULT_CONFIG
from ..core.estmath import estimate_cardinality, rho_is_valid
from ..core.optimal_p import OptimalPResult, find_optimal_pn
from ..core.probe import PHASE as PROBE_PHASE
from ..core.probe import ProbeResult
from ..core.rough import _MAX_RETRIES as _MAX_ROUGH_RETRIES
from ..core.rough import PHASE as ROUGH_PHASE
from ..core.rough import RoughResult
from ..obs import metrics as _metrics
from ..obs.events import engine_fallback, ledger_crosscheck
from ..obs.trace import event as _event, ledger_phase_cums, span as _span
from ..rfid.channel import Channel, PerfectChannel
from ..rfid.frames import BatchFrameResult, run_bfce_frame_batch
from ..rfid.protocol import bfce_phase_message
from ..rfid.tags import TagPopulation
from ..timing.accounting import TimeLedger

__all__ = ["BatchBFCE", "run_bfce_trials_batched", "batching_is_sound"]

_ACCURATE_PHASE = "accurate"
_MAX_ACCURATE_RETRIES = 8


def batching_is_sound(channel: Channel | None) -> bool:
    """Whether the lockstep engine may batch frames under ``channel``.

    Batching executes every active trial's frame in one kernel call, so the
    channel must be a pure function of the slot counts.  Exactly the perfect
    channel qualifies (a subclass could override ``observe`` with stateful
    noise, hence the exact-type check); anything else drops to the serial
    per-trial path where the RNG consumption order is trivially preserved.
    """
    return channel is None or type(channel) is PerfectChannel


@dataclass
class _TrialState:
    """Mutable per-trial protocol state advanced by the lockstep loops."""

    seed: int
    rng: np.random.Generator = field(init=False)
    ledger: TimeLedger = field(init=False)
    pn: int = 0
    probe: ProbeResult | None = None
    probe_history: list[int] = field(default_factory=list)
    rough: RoughResult | None = None
    rough_retries: int = 0
    opt: OptimalPResult | None = None
    accurate_retries: int = 0
    n_hat: float = 0.0
    rho_final: float = 0.0
    pn_final: int = 0

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        self.ledger = TimeLedger()

    def fresh_seeds(self, k: int) -> np.ndarray:
        """Identical draw to :meth:`repro.rfid.reader.Reader.fresh_seeds`."""
        return self.rng.integers(0, 1 << 32, size=k, dtype=np.uint64)


class BatchBFCE:
    """Runs many independent BFCE executions in lockstep, batching frames.

    Parameters
    ----------
    config:
        Protocol constants shared by all trials.
    requirement:
        The (ε, δ) accuracy requirement shared by all trials.

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
        self.config = config
        self.requirement = requirement if requirement is not None else AccuracyRequirement()
        self._message = bfce_phase_message(
            config.k,
            preloaded_constants=config.preloaded_constants,
            seed_bits=config.seed_bits,
            p_bits=config.p_bits,
        )

    # ------------------------------------------------------------------
    def estimate_many(
        self,
        population: TagPopulation,
        seeds,
        *,
        channel: Channel | None = None,
    ) -> list[BFCEResult]:
        """Estimate once per reader seed; results match serial bit-for-bit.

        Equivalent to ``[BFCE(config, requirement).estimate(population,
        seed=s, channel=channel) for s in seeds]``.  When ``channel`` is
        unsound for batching (see :func:`batching_is_sound`) that serial
        expression is literally what runs.
        """
        seed_list = [int(s) for s in seeds]
        if not batching_is_sound(channel):
            serial = BFCE(config=self.config, requirement=self.requirement)
            return [
                serial.estimate(population, seed=s, channel=channel) for s in seed_list
            ]
        _metrics.inc("engine.trials.batched", len(seed_list))
        with _span("batch.estimate_many", engine="batched", trials=len(seed_list)):
            states = [_TrialState(seed=s) for s in seed_list]
            self._probe_phase(population, states)
            self._rough_phase(population, states)
            with _span("plan", trials=len(states)):
                for st in states:
                    if st.rough.n_low > 0:
                        st.opt = find_optimal_pn(
                            st.rough.n_low, self.requirement, self.config
                        )
                        st.pn = st.opt.pn
                    else:
                        st.pn = self.config.pn_max
            self._accurate_phase(population, states)
            return [self._assemble(st) for st in states]

    # ------------------------------------------------------------------
    def _run_round(
        self,
        population: TagPopulation,
        states: list[_TrialState],
        *,
        observe_slots: int,
        phase: str,
    ) -> BatchFrameResult:
        """One lockstep protocol round: broadcast + batched frame for all.

        Per trial this mirrors the serial sequence exactly: record the
        parameter broadcast, draw ``k`` seeds from the trial's own stream,
        run the frame, record its uplink slots.
        """
        cfg = self.config
        with _span("frame.batch", phase=phase, trials=len(states), slots=observe_slots) as sp:
            seed_rows = np.empty((len(states), cfg.k), dtype=np.uint64)
            for i, st in enumerate(states):
                st.ledger.record_downlink(
                    self._message.bits, phase=phase, label=self._message.name
                )
                seed_rows[i] = st.fresh_seeds(cfg.k)
            pn_arr = np.array([st.pn for st in states], dtype=np.int64)
            batch = run_bfce_frame_batch(
                population, w=cfg.w, seeds=seed_rows, p_n=pn_arr, observe_slots=observe_slots
            )
            for st in states:
                st.ledger.record_uplink(observe_slots, phase=phase, label="frame")
            idle = int(batch.blooms.sum())
            _metrics.inc("frame.count", len(states))
            _metrics.inc("frame.slots.idle", idle)
            _metrics.inc("frame.slots.busy", len(states) * observe_slots - idle)
            if sp:
                sp.set(idle_slots=idle)
        return batch

    # ------------------------------------------------------------------
    def _probe_phase(self, population: TagPopulation, states: list[_TrialState]) -> None:
        """Lockstep replica of :func:`repro.core.probe.probe_persistence`."""
        cfg = self.config
        for st in states:
            st.pn = cfg.probe_start_pn
        active = list(states)
        for round_idx in range(cfg.max_probe_rounds):
            if not active:
                break
            for st in active:
                st.probe_history.append(st.pn)
            batch = self._run_round(
                population, active, observe_slots=cfg.probe_slots, phase=PROBE_PHASE
            )
            still: list[_TrialState] = []
            for i, st in enumerate(active):
                ones = batch.ones(i)
                if 0 < ones < cfg.probe_slots:
                    st.probe = ProbeResult(
                        pn=st.pn,
                        rounds=round_idx + 1,
                        mixed=True,
                        history=tuple(st.probe_history),
                    )
                    continue
                if ones == cfg.probe_slots:
                    new_pn = min(st.pn + cfg.probe_step_up, cfg.pn_max)
                else:
                    new_pn = max(st.pn - cfg.probe_step_down, cfg.pn_min)
                if new_pn == st.pn:
                    st.probe = ProbeResult(
                        pn=st.pn,
                        rounds=round_idx + 1,
                        mixed=False,
                        history=tuple(st.probe_history),
                    )
                    continue
                st.pn = new_pn
                still.append(st)
            active = still
        for st in active:  # round cap hit
            st.pn = st.probe_history[-1]
            st.probe = ProbeResult(
                pn=st.pn,
                rounds=cfg.max_probe_rounds,
                mixed=False,
                history=tuple(st.probe_history),
            )

    # ------------------------------------------------------------------
    def _rough_phase(self, population: TagPopulation, states: list[_TrialState]) -> None:
        """Lockstep replica of :func:`repro.core.rough.rough_estimate`."""
        cfg = self.config
        active = list(states)
        while active:
            batch = self._run_round(
                population, active, observe_slots=cfg.rough_slots, phase=ROUGH_PHASE
            )
            still: list[_TrialState] = []
            for i, st in enumerate(active):
                rho = batch.rho(i)
                if rho_is_valid(rho):
                    n_rough = estimate_cardinality(rho, cfg.w, cfg.k, cfg.p_of(st.pn))
                    st.rough = RoughResult(
                        n_rough=n_rough,
                        n_low=cfg.c * n_rough,
                        pn=st.pn,
                        rho=rho,
                        retries=st.rough_retries,
                    )
                    continue
                if rho == 1.0 and st.pn == cfg.pn_max:
                    st.rough = RoughResult(
                        n_rough=0.0, n_low=0.0, pn=st.pn, rho=1.0,
                        retries=st.rough_retries,
                    )
                    continue
                if st.rough_retries >= _MAX_ROUGH_RETRIES:
                    raise RuntimeError(
                        "rough phase could not obtain a mixed frame: population is "
                        f"outside the estimable range for w={cfg.w} "
                        f"(last rho={rho}, pn={st.pn})"
                    )
                st.rough_retries += 1
                if rho == 1.0:
                    st.pn = min(st.pn * 2, cfg.pn_max)
                else:
                    st.pn = max(st.pn // 2, cfg.pn_min)
                still.append(st)
            active = still

    # ------------------------------------------------------------------
    def _accurate_phase(
        self, population: TagPopulation, states: list[_TrialState]
    ) -> None:
        """Lockstep replica of :meth:`repro.core.bfce.BFCE._accurate_frame`."""
        cfg = self.config
        active = list(states)
        while active:
            batch = self._run_round(
                population, active, observe_slots=cfg.w, phase=_ACCURATE_PHASE
            )
            still: list[_TrialState] = []
            for i, st in enumerate(active):
                rho = batch.rho(i)
                if rho_is_valid(rho):
                    st.n_hat = estimate_cardinality(rho, cfg.w, cfg.k, cfg.p_of(st.pn))
                    st.rho_final = rho
                    st.pn_final = st.pn
                    continue
                if rho == 1.0 and st.pn == cfg.pn_max:
                    # Saturated idle even at max persistence: effectively empty.
                    st.n_hat = 0.0
                    st.rho_final = rho
                    st.pn_final = st.pn
                    continue
                if rho == 0.0 and st.pn == cfg.pn_min:
                    raise RuntimeError(
                        f"accurate phase stuck all-busy at pn_min={st.pn} "
                        f"(rho=0.0); population exceeds the estimable range "
                        f"for w={cfg.w}"
                    )
                if st.accurate_retries >= _MAX_ACCURATE_RETRIES:
                    raise RuntimeError(
                        f"accurate phase degenerate after {st.accurate_retries} "
                        f"retries (rho={rho}, pn={st.pn}); population outside "
                        "design range"
                    )
                st.accurate_retries += 1
                st.pn = (
                    min(st.pn * 2, cfg.pn_max)
                    if rho == 1.0
                    else max(st.pn // 2, cfg.pn_min)
                )
                still.append(st)
            active = still

    # ------------------------------------------------------------------
    def _assemble(self, st: _TrialState) -> BFCEResult:
        guarantee = (
            st.opt is not None and st.opt.feasible and st.accurate_retries == 0
        )
        elapsed = st.ledger.total_seconds()
        phase_ledger = ledger_phase_cums(st.ledger)
        ledger_crosscheck("bfce.batched", elapsed, phase_ledger)
        _event(
            "trial",
            engine="batched",
            seed=st.seed,
            n_hat=st.n_hat,
            pn_probe=st.probe.pn,
            pn_optimal=st.pn_final,
            rho_final=st.rho_final,
            guarantee_met=guarantee,
            probe_rounds=st.probe.rounds,
            elapsed_seconds=elapsed,
            phase_ledger=phase_ledger,
        )
        return BFCEResult(
            n_hat=st.n_hat,
            n_rough=st.rough.n_rough,
            n_low=st.rough.n_low,
            pn_probe=st.probe.pn,
            pn_rough=st.rough.pn,
            pn_optimal=st.pn_final,
            rho_final=st.rho_final,
            guarantee_met=guarantee,
            probe_rounds=st.probe.rounds,
            rough_retries=st.rough.retries,
            accurate_retries=st.accurate_retries,
            elapsed_seconds=elapsed,
            ledger=st.ledger,
        )


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
