"""Common interface for all cardinality estimators (BFCE and baselines).

Every protocol in :mod:`repro.baselines` implements :class:`CardinalityEstimator`:
it drives a :class:`~repro.rfid.reader.Reader` (which meters air time) and
returns an :class:`EstimationResult`.  This uniform surface is what the
comparison experiments (Figs. 9–10) sweep over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.accuracy import AccuracyRequirement
from ..rfid.air import Protocol, run_protocol
from ..rfid.reader import Reader
from ..rfid.tags import TagPopulation
from ..timing.accounting import TimeLedger

__all__ = ["EstimationResult", "CardinalityEstimator"]


@dataclass(frozen=True)
class EstimationResult:
    """Outcome of one estimator execution.

    Attributes
    ----------
    n_hat:
        The cardinality estimate.
    elapsed_seconds:
        Total metered reader↔tag air time.
    estimator:
        Name of the protocol that produced the estimate.
    rounds:
        Protocol-specific round count (frames, repeated phases, …).
    uplink_slots, downlink_bits:
        Communication volume totals.
    extra:
        Free-form protocol diagnostics.
    """

    n_hat: float
    elapsed_seconds: float
    estimator: str
    rounds: int = 1
    uplink_slots: int = 0
    downlink_bits: int = 0
    extra: dict = field(default_factory=dict)

    def relative_error(self, n_true: float) -> float:
        """The paper's accuracy metric |n̂ − n| / n."""
        if n_true <= 0:
            raise ValueError("n_true must be positive")
        return abs(self.n_hat - n_true) / n_true


class CardinalityEstimator:
    """Base class: run a protocol against a population and meter its time."""

    #: Human-readable protocol name; subclasses override.
    name: str = "abstract"

    def __init__(self, requirement: AccuracyRequirement | None = None) -> None:
        self.requirement = requirement if requirement is not None else AccuracyRequirement()

    def estimate(self, population: TagPopulation, *, seed: int = 0) -> EstimationResult:
        """Run the protocol on a fresh reader and return the result."""
        reader = Reader(population, seed=seed)
        return self.estimate_with_reader(reader)

    def estimate_with_reader(self, reader: Reader) -> EstimationResult:
        """Run the protocol on a caller-provided (event or analytic) reader."""
        return run_protocol(self.protocol(reader), reader)

    def protocol(self, reader: Reader) -> Protocol:
        """The protocol as a generator of air requests (:mod:`repro.rfid.air`).

        Estimators written this way run unchanged on the serial, analytic
        and batched engines; the others override :meth:`estimate_with_reader`.
        """
        raise NotImplementedError

    def _result(
        self,
        n_hat: float,
        ledger: TimeLedger,
        *,
        rounds: int = 1,
        extra: dict | None = None,
    ) -> EstimationResult:
        """Assemble an :class:`EstimationResult` from a finished ledger."""
        return EstimationResult(
            n_hat=n_hat,
            elapsed_seconds=ledger.total_seconds(),
            estimator=self.name,
            rounds=rounds,
            uplink_slots=ledger.uplink_slots(),
            downlink_bits=ledger.downlink_bits(),
            extra=extra or {},
        )
