"""Probing for a valid persistence probability (Sec. IV-C, first paragraph).

Before the rough estimation frame can run, BFCE needs *some* persistence
probability ``p_s`` for which the Bloom vector is neither all-idle nor
all-busy.  With no prior knowledge of ``n``, the reader probes:

1. start at ``p_s = 8/1024``;
2. observe 32 bit-slots of a frame run at ``p_s``;
3. if **all 32 are idle** the load is too light — raise ``p_s`` by 2/1024;
   if **all 32 are busy** it is too heavy — lower ``p_s`` by 1/1024;
4. stop as soon as both idle and busy slots appear.

The numerator is clamped to the grid ``[1, 1023]``; at the boundary the
probe accepts the boundary value after the step can no longer move (a
population so large that even ``p = 1/1024`` saturates 32 slots is beyond
the configured ``w`` anyway, and the rough phase's own retry logic handles
it).  Each round costs one parameter broadcast plus 32 bit-slots.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import metrics as _metrics
from ..rfid.air import BFCEFrame, Protocol, run_protocol
from ..rfid.reader import Reader
from .config import BFCEConfig, DEFAULT_CONFIG

__all__ = ["ProbeResult", "probe_persistence", "probe_phase"]

PHASE = "probe"


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of the probing procedure.

    Attributes
    ----------
    pn:
        The accepted persistence numerator (p_s = pn / 1024).
    rounds:
        Number of 32-slot probe rounds executed.
    mixed:
        True if the final round actually observed both idle and busy slots;
        False when the probe stopped at a grid boundary or the round cap.
    history:
        The numerator tried at each round, in order.
    """

    pn: int
    rounds: int
    mixed: bool
    history: tuple[int, ...]


def probe_persistence(
    reader: Reader,
    config: BFCEConfig = DEFAULT_CONFIG,
    *,
    phase: str = PHASE,
) -> ProbeResult:
    """Run the adaptive probe on ``reader`` and return a usable numerator."""
    result = run_protocol(probe_phase(config, phase), reader)
    _metrics.inc("probe.rounds", result.rounds)
    return result


def probe_phase(config: BFCEConfig = DEFAULT_CONFIG, phase: str = PHASE) -> Protocol:
    """The probe as a protocol generator (see :mod:`repro.rfid.air`).

    Yields one :class:`~repro.rfid.air.BFCEFrame` per round, receives the
    idle-slot count, and returns the :class:`ProbeResult`.
    """
    pn = config.probe_start_pn
    history: list[int] = []
    for round_idx in range(config.max_probe_rounds):
        history.append(pn)
        ones = yield BFCEFrame(config, pn, config.probe_slots, phase)
        if 0 < ones < config.probe_slots:
            return ProbeResult(pn=pn, rounds=round_idx + 1, mixed=True, history=tuple(history))
        if ones == config.probe_slots:
            # All idle: too few responses — raise p.
            new_pn = min(pn + config.probe_step_up, config.pn_max)
        else:
            # All busy: too many responses — lower p.
            new_pn = max(pn - config.probe_step_down, config.pn_min)
        if new_pn == pn:
            # Stuck at a grid boundary; accept it.
            return ProbeResult(pn=pn, rounds=round_idx + 1, mixed=False, history=tuple(history))
        pn = new_pn
    # Round cap hit: fall back to the last numerator actually probed.
    return ProbeResult(
        pn=history[-1], rounds=config.max_probe_rounds, mixed=False, history=tuple(history)
    )
