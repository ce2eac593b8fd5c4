"""BFCE: the two-phase constant-time cardinality estimator (Sec. IV).

One :meth:`BFCE.estimate` call executes the whole protocol of Algorithms 1–2
against a tag population:

1. **Probe** — adaptively find a persistence ``p_s`` giving a mixed frame
   (a handful of 32-slot rounds, Sec. IV-C).
2. **Rough phase** — one 1024-slot truncated frame at ``p_s``; produces the
   rough estimate ``n̂_r`` and lower bound ``n̂_low = c·n̂_r``.
3. **Optimal-p search** — reader-side brute force over the 1/1024 grid for
   the minimal ``p_o`` satisfying Theorem 4 at ``n̂_low`` (no air time).
4. **Accurate phase** — one full 8192-slot frame at ``p_o``; Eq. 3 turns the
   observed idle ratio into the final estimate ``n̂``.

Everything is metered on the reader's :class:`~repro.timing.TimeLedger`; the
returned :class:`BFCEResult` carries the estimate, the per-phase diagnostics
and the total execution time, which for the default configuration stays below
the paper's 0.19 s bound plus a few milliseconds of probing.

The protocol is written once, as the generator :meth:`BFCE.protocol` (built
from :func:`~repro.core.probe.probe_phase` and
:func:`~repro.core.rough.rough_phase`); the serial, analytic and batched
engines all drive it (:mod:`repro.rfid.air`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import metrics as _metrics
from ..obs.events import ledger_crosscheck
from ..obs.trace import ledger_phase_cums, span as _span
from ..rfid.air import BFCEFrame, Protocol, run_protocol
from ..rfid.channel import Channel, PerfectChannel
from ..rfid.reader import Reader
from ..rfid.tags import TagPopulation
from ..timing.accounting import TimeLedger
from .accuracy import AccuracyRequirement
from .config import BFCEConfig, DEFAULT_CONFIG
from .estmath import estimate_cardinality, rho_is_valid
from .optimal_p import find_optimal_pn
from .probe import probe_phase
from .rough import rough_phase

__all__ = ["BFCE", "BFCEResult", "bfce_estimate"]

_ACCURATE_PHASE = "accurate"
_MAX_ACCURATE_RETRIES = 8
#: Grid resolution baked into the event tag hash (frames.py kernels).
_EVENT_PN_DENOM = 1024


@dataclass(frozen=True)
class BFCEResult:
    """Full outcome of one BFCE execution.

    Attributes
    ----------
    n_hat:
        Final cardinality estimate (Eq. 3 on the accurate frame).
    n_rough, n_low:
        Rough-phase estimate and the derived lower bound c·n̂_r.
    pn_probe, pn_rough, pn_optimal:
        Persistence numerators: accepted by the probe, used by the final
        rough frame, and selected for the accurate frame.
    rho_final:
        Idle ratio observed by the accurate frame.
    guarantee_met:
        True when Theorem 4's conditions were satisfiable on the grid (so
        the (ε, δ) guarantee holds); False for the best-effort fallback.
    probe_rounds, rough_retries, accurate_retries:
        Extra-work diagnostics.
    elapsed_seconds:
        Total metered reader↔tag time, probing included.
    ledger:
        The full message ledger (per-phase breakdown available via
        ``ledger.phase_breakdown()``).
    """

    n_hat: float
    n_rough: float
    n_low: float
    pn_probe: int
    pn_rough: int
    pn_optimal: int
    rho_final: float
    guarantee_met: bool
    probe_rounds: int
    rough_retries: int
    accurate_retries: int
    elapsed_seconds: float
    ledger: TimeLedger

    def relative_error(self, n_true: float) -> float:
        """The paper's accuracy metric |n̂ − n| / n."""
        if n_true <= 0:
            raise ValueError("n_true must be positive")
        return abs(self.n_hat - n_true) / n_true


class BFCE:
    """Bloom Filter based Cardinality Estimator.

    Parameters
    ----------
    config:
        Protocol constants (defaults to the paper's w=8192, k=3, c=0.5).
    requirement:
        The (ε, δ) accuracy requirement (defaults to (0.05, 0.05)).

    Example
    -------
    >>> from repro import BFCE, TagPopulation, uniform_ids
    >>> pop = TagPopulation(uniform_ids(50_000, seed=1))
    >>> result = BFCE().estimate(pop, seed=7)
    >>> abs(result.n_hat - 50_000) / 50_000 < 0.05
    True
    """

    def __init__(
        self,
        config: BFCEConfig = DEFAULT_CONFIG,
        requirement: AccuracyRequirement | None = None,
    ) -> None:
        self.config = config
        self.requirement = requirement if requirement is not None else AccuracyRequirement()

    # ------------------------------------------------------------------
    def estimate(
        self,
        population: TagPopulation,
        *,
        seed: int = 0,
        channel: Channel | None = None,
    ) -> BFCEResult:
        """Run the full two-phase protocol against ``population``."""
        reader = Reader(
            population,
            seed=seed,
            channel=channel if channel is not None else PerfectChannel(),
        )
        return self.estimate_with_reader(reader)

    def estimate_analytic(
        self,
        n: int,
        *,
        seed: int = 0,
        channel: Channel | None = None,
        persistence_mode: str = "event",
    ) -> BFCEResult:
        """Run the protocol against a *virtual* population of ``n`` tags.

        Uses the analytic occupancy engine
        (:class:`~repro.rfid.occupancy.AnalyticReader`): each frame's slot
        counts are sampled from their exact distribution in O(w) instead of
        hashing ``n`` tags, so one execution costs the same at n = 10⁸ as at
        n = 10⁵ and no tagID array is ever materialised.  The result is
        exact in distribution but **not** bit-identical to
        :meth:`estimate` — same protocol, a different (equally valid)
        random execution.  See DESIGN.md §6 for the exactness contract.
        """
        from ..rfid.occupancy import AnalyticReader

        reader = AnalyticReader(
            int(n),
            seed=seed,
            channel=channel if channel is not None else PerfectChannel(),
            persistence_mode=persistence_mode,
            pn_denom=self.config.pn_denom,
        )
        return self.estimate_with_reader(reader)

    def estimate_with_reader(self, reader: Reader) -> BFCEResult:
        """Run the protocol on a caller-provided reader (ledger appended).

        ``reader`` may be any object implementing the Reader air interface
        (``broadcast`` / ``fresh_seeds`` / ``sense_frame`` / ledger) — the
        event :class:`~repro.rfid.reader.Reader` or the analytic
        :class:`~repro.rfid.occupancy.AnalyticReader`.
        """
        cfg = self.config
        # The tag-side hash of the event kernels is fixed at the paper's
        # 1/1024 persistence grid; only the analytic reader resamples at an
        # arbitrary resolution.  A mismatched grid would silently desync the
        # tags' response probability from the estimator's p_of().
        reader_denom = getattr(reader, "pn_denom", _EVENT_PN_DENOM)
        if reader_denom != cfg.pn_denom:
            raise ValueError(
                f"persistence-grid mismatch: config uses 1/{cfg.pn_denom} but "
                f"the reader responds on 1/{reader_denom}; configs with "
                f"pn_denom != {_EVENT_PN_DENOM} require engine='analytic'"
            )
        engine = "analytic" if type(reader).__name__ == "AnalyticReader" else "serial"
        _metrics.inc(f"engine.trials.{engine}")
        with _span("trial", engine=engine, w=cfg.w) as sp:
            result = run_protocol(self.protocol(reader), reader)
            _metrics.inc("probe.rounds", result.probe_rounds)
            _metrics.inc("rough.retries", result.rough_retries)
            _metrics.inc("accurate.retries", result.accurate_retries)
            phase_ledger = ledger_phase_cums(result.ledger)
            ledger_crosscheck(f"bfce.{engine}", result.elapsed_seconds, phase_ledger)
            if sp:
                sp.set(
                    n_hat=result.n_hat,
                    n_rough=result.n_rough,
                    pn_probe=result.pn_probe,
                    pn_optimal=result.pn_optimal,
                    rho_final=result.rho_final,
                    guarantee_met=result.guarantee_met,
                    probe_rounds=result.probe_rounds,
                    rough_retries=result.rough_retries,
                    accurate_retries=result.accurate_retries,
                    elapsed_seconds=result.elapsed_seconds,
                    phase_ledger=phase_ledger,
                )
            return result

    def protocol(self, reader: Reader) -> Protocol:
        """Algorithms 1–2 as one protocol generator (see :mod:`repro.rfid.air`).

        Probe, rough phase, optimal-p planning and the accurate phase with
        its retries; every frame is a yielded
        :class:`~repro.rfid.air.BFCEFrame`.  ``reader`` is only read for
        its ledger, which the returned :class:`BFCEResult` totals — the
        serial, analytic and batched engines all run this generator.
        """
        cfg = self.config
        probe = yield from probe_phase(cfg)
        rough = yield from rough_phase(probe.pn, cfg)
        if rough.n_low > 0:
            with _span("plan", n_low=rough.n_low) as plan_sp:
                opt = find_optimal_pn(rough.n_low, self.requirement, cfg)
                if plan_sp:
                    plan_sp.set(pn_optimal=opt.pn, feasible=opt.feasible)
            pn, feasible = opt.pn, opt.feasible
        else:
            # Degenerate path: the rough phase saw no responders at max p.
            pn, feasible = cfg.pn_max, False
        n_hat, rho_final, pn_final, retries = yield from self._accurate_phase(pn)
        return BFCEResult(
            n_hat=n_hat,
            n_rough=rough.n_rough,
            n_low=rough.n_low,
            pn_probe=probe.pn,
            pn_rough=rough.pn,
            pn_optimal=pn_final,
            rho_final=rho_final,
            guarantee_met=feasible and retries == 0,
            probe_rounds=probe.rounds,
            rough_retries=rough.retries,
            accurate_retries=retries,
            elapsed_seconds=reader.ledger.total_seconds(),
            ledger=reader.ledger,
        )

    # ------------------------------------------------------------------
    def _accurate_phase(self, pn: int) -> Protocol:
        """The final full-w frame, retrying on degenerate ρ̄.

        Returns ``(n_hat, rho, pn, retries)``.
        """
        cfg = self.config
        retries = 0
        while True:
            ones = yield BFCEFrame(cfg, pn, cfg.w, _ACCURATE_PHASE)
            rho = ones / cfg.w
            if rho_is_valid(rho):
                n_hat = estimate_cardinality(rho, cfg.w, cfg.k, cfg.p_of(pn))
                return n_hat, rho, pn, retries
            if rho == 1.0 and pn == cfg.pn_max:
                # Saturated idle even at max persistence: effectively empty.
                return 0.0, rho, pn, retries
            if rho == 0.0 and pn == cfg.pn_min:
                # Stuck at the grid floor: halving can no longer move pn, so
                # every retry would re-run a full w-slot frame with identical
                # parameters against a population that saturates even at
                # p = 1/1024.  Fail fast instead of burning the retry budget.
                raise RuntimeError(
                    f"accurate phase stuck all-busy at pn_min={pn} (rho=0.0); "
                    f"population exceeds the estimable range for w={cfg.w}"
                )
            if retries >= _MAX_ACCURATE_RETRIES:
                raise RuntimeError(
                    f"accurate phase degenerate after {retries} retries "
                    f"(rho={rho}, pn={pn}); population outside design range"
                )
            retries += 1
            pn = min(pn * 2, cfg.pn_max) if rho == 1.0 else max(pn // 2, cfg.pn_min)


def bfce_estimate(
    tag_ids: np.ndarray,
    *,
    eps: float = 0.05,
    delta: float = 0.05,
    seed: int = 0,
    config: BFCEConfig = DEFAULT_CONFIG,
) -> BFCEResult:
    """One-call convenience API: estimate the cardinality of a tagID set.

    Parameters
    ----------
    tag_ids:
        The (unique) tagIDs physically present in the reader's range.
    eps, delta:
        Accuracy requirement ``Pr{|n̂−n| ≤ eps·n} ≥ 1 − delta``.
    seed:
        Reader seed; fixes the whole execution for reproducibility.
    config:
        Protocol constants.
    """
    estimator = BFCE(config=config, requirement=AccuracyRequirement(eps, delta))
    return estimator.estimate(TagPopulation(np.asarray(tag_ids)), seed=seed)
