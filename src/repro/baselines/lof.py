"""LOF — Lottery-Frame estimator (Qian et al., TPDS 2011 [19]).

Each round the reader broadcasts one 32-bit seed and opens a frame of
``L`` bit-slots.  Every tag hashes itself to slot ``j`` with *geometric*
probability ``2^{-(j+1)}``, so low slots are almost surely busy and high
slots almost surely idle; the boundary — the index ``R`` of the first idle
slot — concentrates around ``log2(φ·n)`` with the Flajolet–Martin constant
``φ ≈ 0.77351``.  Averaging ``R`` over ``r`` rounds gives the rough estimate

.. math:: \\hat n = 2^{\\bar R} / φ.

LOF is coarse (single-round relative error is large) but extremely cheap —
which is why this paper's comparison setup uses "LOF run for 10 rounds" as
ZOE's rough-estimation input (Sec. V-C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.accuracy import AccuracyRequirement
from ..rfid import _native
from ..rfid.air import AirRequest, Protocol
from ..rfid.hashing import first_idle_from_occupancy, geometric_hash, geometric_occupancy_batch
from ..rfid.occupancy import sample_lottery_first_idle
from ..rfid.reader import Reader
from .base import CardinalityEstimator

__all__ = ["LOF", "FM_PHI", "LotteryFrames"]

#: Flajolet–Martin bias-correction constant.
FM_PHI: float = 0.77351

_PHASE = "lof"

#: Per-core event budget (frames × population) of one streamed occupancy
#: block in :meth:`LotteryFrames.run_batch` — matches the frame engine's
#: cache-resident chunk size.  The threaded kernel parallelises over the
#: frames within a block, so the block budget scales by the kernel thread
#: count: every core works a single-core-sized slice.
_STREAM_EVENT_BUDGET = 300_000


@dataclass(frozen=True)
class LotteryFrames(AirRequest):
    """``rounds`` lottery frames of ``frame_slots`` geometric bit-slots.

    Each frame costs a fresh 32-bit seed broadcast plus ``frame_slots``
    uplink slots.  Observation: the float64 array of every frame's first
    idle slot index (``frame_slots`` when all slots are busy).
    """

    rounds: int
    frame_slots: int
    phase: str

    def batch_key(self):
        return (LotteryFrames, self.rounds, self.frame_slots, self.phase)

    def _meter(self, reader) -> None:
        reader.broadcast_bits(32, phase=self.phase, label="seed")
        reader.ledger.record_uplink(self.frame_slots, phase=self.phase, label="lottery-frame")

    def run(self, reader) -> np.ndarray:
        ids = reader.population.tag_ids
        first_idle = np.empty(self.rounds, dtype=np.float64)
        for r in range(self.rounds):
            seed = int(reader.fresh_seeds(1)[0])
            busy = np.zeros(self.frame_slots, dtype=bool)
            busy[geometric_hash(ids, seed, max_bits=self.frame_slots)] = True
            idle = ~busy
            first_idle[r] = float(np.argmax(idle)) if idle.any() else float(self.frame_slots)
            self._meter(reader)
        return first_idle

    def run_analytic(self, reader) -> np.ndarray:
        first_idle = np.empty(self.rounds, dtype=np.float64)
        for r in range(self.rounds):
            first_idle[r] = sample_lottery_first_idle(reader.rng, reader.n, self.frame_slots)
            self._meter(reader)
        return first_idle

    @classmethod
    def run_batch(cls, population, readers, requests) -> list[np.ndarray]:
        """All trials' frames streamed through the occupancy kernel.

        Seeds are drawn per trial in round order, as :meth:`run` does;
        per-frame occupancies depend only on their own seed, so the block
        size never changes an output bit.  Needs ``frame_slots <= 64``.
        """
        rounds, slots = requests[0].rounds, requests[0].frame_slots
        seeds = np.array(
            [[reader.fresh_seeds(1)[0] for _ in range(rounds)] for reader in readers],
            dtype=np.uint64,
        ).ravel()
        budget = _STREAM_EVENT_BUDGET * _native.effective_threads()
        block = max(1, budget // max(1, population.size))
        occupancy = np.empty(seeds.size, dtype=np.uint64)
        for lo in range(0, seeds.size, block):
            occupancy[lo : lo + block] = geometric_occupancy_batch(
                population.tag_ids, seeds[lo : lo + block], max_bits=slots
            )
        first_idle = first_idle_from_occupancy(occupancy, slots).reshape(len(readers), rounds)
        for reader, request in zip(readers, requests):
            for _ in range(rounds):
                request._meter(reader)
        return list(first_idle.astype(np.float64))


class LOF(CardinalityEstimator):
    """Lottery-Frame rough estimator.

    Parameters
    ----------
    rounds:
        Number of independent lottery frames to average (paper setup: 10).
    frame_slots:
        Frame length ``L``; 32 slots cover cardinalities up to ~2³²·φ.
    requirement:
        Unused by LOF itself (it offers no (ε, δ) tuning) but kept for the
        uniform estimator interface.
    """

    name = "LOF"

    def __init__(
        self,
        rounds: int = 10,
        frame_slots: int = 32,
        requirement: AccuracyRequirement | None = None,
    ) -> None:
        super().__init__(requirement)
        if rounds <= 0:
            raise ValueError("rounds must be positive")
        if frame_slots <= 1:
            raise ValueError("frame_slots must be > 1")
        self.rounds = rounds
        self.frame_slots = frame_slots

    def protocol(self, reader: Reader) -> Protocol:
        first_idle = yield LotteryFrames(self.rounds, self.frame_slots, _PHASE)
        n_hat = float(2.0 ** first_idle.mean() / FM_PHI)
        return self._result(
            n_hat,
            reader.ledger,
            rounds=self.rounds,
            extra={"first_idle_mean": float(first_idle.mean())},
        )
