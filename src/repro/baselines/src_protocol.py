"""SRC — Simple RFID Counting (Chen, Zhou, Yu — MobiCom 2013 [15]).

SRC is a two-phase protocol: a cheap rough phase bounds the cardinality,
then a *balanced* framed-ALOHA phase refines it.  Following this paper's
comparison setup (Sec. V-C), the second phase is repeated ``m`` rounds and
the round estimates are combined by median, where ``m`` is the smallest
(odd) integer satisfying the majority-amplification condition

.. math:: \\sum_{i=(m+1)/2}^{m} \\binom{m}{i}\\,0.8^i\\,0.2^{m-i} \\ge 1-δ

(each round is (ε, 0.2)-accurate; a majority of accurate rounds makes the
median accurate).

Round structure:

* the reader broadcasts a seed and the sampling probability
  ``ρ = min(1, λ*·f/ñ)`` targeting the variance-optimal load
  ``λ* ≈ 1.594`` responders-per-slot-scale (the minimiser of
  ``(e^λ−1)/λ²``);
* a frame of ``f = ⌈C_SRC/ε²⌉`` contiguous bit-slots runs; the reader
  observes the empty fraction ``z̄`` and computes ``n̂ = −f·ln z̄ / ρ``;
* a round whose frame comes back saturated (almost no empty slots) or
  starved (no busy slots) reveals that the rough bound was badly off: SRC
  corrects its working bound by ×4 / ÷4 and repeats the round.  These
  repeats are why SRC's execution time varies with rough-phase accuracy
  (the paper's Fig. 10 commentary).

Calibration note (DESIGN.md §2.7): neither paper states SRC's absolute
frame-size constant; ``C_SRC = 10.0`` is calibrated so the *published
relative shape* holds — SRC lands ≈ 2× BFCE's execution time averaged over
the paper's sweep set while remaining ~10× faster than ZOE (SRC broadcasts
once per round, not once per slot).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.stats import binom

from ..core.accuracy import AccuracyRequirement
from ..rfid.air import AirRequest, Protocol
from ..rfid.occupancy import sample_aloha_empty
from ..rfid.reader import Reader
from .base import CardinalityEstimator
from .framedaloha import aloha_empty_counts_batch, run_aloha_frame
from .lof import FM_PHI, LotteryFrames

__all__ = [
    "SRC",
    "BalancedFrame",
    "src_round_count",
    "SRC_OPTIMAL_LOAD",
    "SRC_FRAME_CONSTANT",
]

_PHASE_ROUGH = "src-rough"
_PHASE_MAIN = "src-rounds"

#: λ* = argmin (e^λ − 1)/λ², the variance-optimal per-slot load.
SRC_OPTIMAL_LOAD: float = 1.594

#: Frame-size constant: f = ceil(C/ε²).  See calibration note above.
SRC_FRAME_CONSTANT: float = 10.0

#: Per-round success probability assumed by the amplification analysis.
_ROUND_SUCCESS: float = 0.8

#: Cap on saturation-correction repeats within one round.
_MAX_ROUND_RETRIES: int = 6


@lru_cache(maxsize=64)
def src_round_count(delta: float, max_rounds: int = 99) -> int:
    """Smallest odd m with P[Binomial(m, 0.8) ≥ (m+1)/2] ≥ 1 − δ.

    Examples: δ=0.3 → 1, δ=0.15 → 3, δ=0.10 → 5, δ=0.05 → 7.  Memoised:
    every SRC trial asks, and each answer costs a few SciPy tail sums.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    for m in range(1, max_rounds + 1, 2):
        need = (m + 1) // 2
        if float(binom.sf(need - 1, m, _ROUND_SUCCESS)) >= 1.0 - delta:
            return m
    return max_rounds


@dataclass(frozen=True)
class BalancedFrame(AirRequest):
    """One phase-2 SRC round: parameters, then a framed-ALOHA frame.

    The 80-bit broadcast carries the seed (32), ρ (32) and the frame size
    (16); every tag joins with probability ``sampling_prob`` and answers in
    one of ``frame_size`` slots.  Observation: the number of empty slots.
    """

    frame_size: int
    sampling_prob: float
    phase: str = _PHASE_MAIN

    def batch_key(self):
        return (BalancedFrame, self.frame_size, self.phase)

    def _meter(self, reader) -> None:
        reader.broadcast_bits(80, phase=self.phase, label="round-params")
        reader.ledger.record_uplink(self.frame_size, phase=self.phase, label="frame")

    def run(self, reader) -> int:
        frame = run_aloha_frame(
            reader.population,
            frame_size=self.frame_size,
            sampling_prob=self.sampling_prob,
            seed=int(reader.fresh_seeds(1)[0]),
        )
        self._meter(reader)
        return frame.empty_slots

    def run_analytic(self, reader) -> int:
        empty = sample_aloha_empty(reader.rng, reader.n, self.frame_size, self.sampling_prob)
        self._meter(reader)
        return empty

    @classmethod
    def run_batch(cls, population, readers, requests) -> list[int]:
        seeds = np.array([reader.fresh_seeds(1)[0] for reader in readers], dtype=np.uint64)
        empty = aloha_empty_counts_batch(
            population,
            frame_size=requests[0].frame_size,
            sampling_probs=np.array([request.sampling_prob for request in requests]),
            seeds=seeds,
        )
        for reader, request in zip(readers, requests):
            request._meter(reader)
        return empty.tolist()


class SRC(CardinalityEstimator):
    """Simple RFID Counting with median-of-rounds amplification.

    Parameters
    ----------
    requirement:
        The (ε, δ) accuracy target; drives both the per-round frame size
        (∝ 1/ε²) and the round count m(δ).
    rough_slots:
        Length of the phase-1 lottery frame.
    """

    name = "SRC"

    def __init__(
        self,
        requirement: AccuracyRequirement | None = None,
        rough_slots: int = 32,
    ) -> None:
        super().__init__(requirement)
        if rough_slots <= 1:
            raise ValueError("rough_slots must be > 1")
        self.rough_slots = rough_slots

    # ------------------------------------------------------------------
    def frame_size(self) -> int:
        """Per-round frame size f = ⌈C_SRC/ε²⌉."""
        return int(np.ceil(SRC_FRAME_CONSTANT / self.requirement.eps**2))

    def protocol(self, reader: Reader) -> Protocol:
        req = self.requirement

        # ---- phase 1: one lottery frame for a rough bound
        first_idle = yield LotteryFrames(1, self.rough_slots, _PHASE_ROUGH)
        n_working = max(2.0 ** float(first_idle[0]) / FM_PHI, 1.0)

        # ---- phase 2: m balanced rounds, median-combined
        m = src_round_count(req.delta)
        f = self.frame_size()
        estimates: list[float] = []
        total_frames = 0
        for round_idx in range(m):
            for attempt in range(_MAX_ROUND_RETRIES + 1):
                rho = float(min(1.0, SRC_OPTIMAL_LOAD * f / n_working))
                empty = yield BalancedFrame(f, rho)
                total_frames += 1
                z = empty / f
                if z >= 1.0 - 0.5 / f:
                    # Starved: nobody responded → working bound far too high
                    # (unless ρ is already 1, in which case the range really
                    # is almost empty and z̄≈1 is the honest observation).
                    if rho < 1.0 and attempt < _MAX_ROUND_RETRIES:
                        n_working = max(n_working / 4.0, 1.0)
                        continue
                elif z <= 0.5 / f:
                    # Saturated: bound far too low.
                    if attempt < _MAX_ROUND_RETRIES:
                        n_working *= 4.0
                        continue
                z_clamped = min(max(z, 0.5 / f), 1.0 - 0.5 / f)
                estimates.append(-f * float(np.log(z_clamped)) / rho)
                break
        n_hat = float(np.median(estimates))
        return self._result(
            n_hat,
            reader.ledger,
            rounds=m,
            extra={
                "n_rough": n_working,
                "frame_size": f,
                "frames_run": total_frames,
                "round_estimates": estimates,
            },
        )
