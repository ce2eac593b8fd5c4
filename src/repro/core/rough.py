"""Rough lower-bound estimation phase (Sec. IV-C).

With the probed persistence ``p_s``, the reader runs one frame but terminates
it after 1024 of the announced 8192 bit-slots.  Because every slot is
identically distributed (uniform hashes), the idle ratio of the observed
prefix is an unbiased estimate of the full-frame ratio, so Eq. 3 applied with
the *full* ``w`` gives a rough estimate ``n̂_r``.  The phase returns

.. math:: \\hat n_{low} = c · \\hat n_r, \\qquad c = 0.5,

which under-shoots the true ``n`` with high probability — exactly what
Theorem 4 needs (it must evaluate feasibility at a value ≤ n).

If the observed prefix happens to be all-idle or all-busy (ρ̄ ∈ {0, 1}, the
two exceptions of Sec. IV-B — possible since the probe looked at only 32
slots), the phase retries with the numerator doubled / halved.  Each retry
costs another broadcast and 1024 slots and is recorded in the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import metrics as _metrics
from ..rfid.air import BFCEFrame, Protocol, run_protocol
from ..rfid.reader import Reader
from .config import BFCEConfig, DEFAULT_CONFIG
from .estmath import estimate_cardinality, rho_is_valid

__all__ = ["RoughResult", "rough_estimate", "rough_phase"]

PHASE = "rough"

#: Cap on all-idle/all-busy retries; 2·log2(1024) steps suffice to traverse
#: the whole numerator grid by doubling/halving.
_MAX_RETRIES = 20


@dataclass(frozen=True)
class RoughResult:
    """Outcome of the rough-estimation phase.

    Attributes
    ----------
    n_rough:
        The unscaled rough estimate n̂_r from Eq. 3.
    n_low:
        The lower bound n̂_low = c·n̂_r handed to the accurate phase.
    pn:
        Persistence numerator actually used by the final (valid) frame.
    rho:
        Observed idle ratio of that frame.
    retries:
        Number of extra frames run because ρ̄ was 0 or 1.
    """

    n_rough: float
    n_low: float
    pn: int
    rho: float
    retries: int


def rough_estimate(
    reader: Reader,
    pn: int,
    config: BFCEConfig = DEFAULT_CONFIG,
    *,
    phase: str = PHASE,
) -> RoughResult:
    """Run the rough phase on ``reader`` with probed numerator ``pn``."""
    result = run_protocol(rough_phase(pn, config, phase), reader)
    _metrics.inc("rough.retries", result.retries)
    return result


def rough_phase(
    pn: int, config: BFCEConfig = DEFAULT_CONFIG, phase: str = PHASE
) -> Protocol:
    """The rough phase as a protocol generator (see :mod:`repro.rfid.air`).

    Yields one truncated :class:`~repro.rfid.air.BFCEFrame` per attempt,
    receives the idle-slot count, and returns the :class:`RoughResult`.
    """
    if not config.pn_min <= pn <= config.pn_max:
        raise ValueError(f"pn must be in [{config.pn_min}, {config.pn_max}], got {pn}")
    retries = 0
    while True:
        ones = yield BFCEFrame(config, pn, config.rough_slots, phase)
        rho = ones / config.rough_slots
        if rho_is_valid(rho):
            break
        if rho == 1.0 and pn == config.pn_max:
            # All idle even at the grid's maximum persistence: the range is
            # effectively empty (n far below the protocol's design floor of
            # ~1000 tags).  Report a zero rough estimate instead of failing.
            return RoughResult(n_rough=0.0, n_low=0.0, pn=pn, rho=1.0, retries=retries)
        if retries >= _MAX_RETRIES:
            raise RuntimeError(
                "rough phase could not obtain a mixed frame: population is "
                f"outside the estimable range for w={config.w} "
                f"(last rho={rho}, pn={pn})"
            )
        retries += 1
        if rho == 1.0:
            # All idle → too few responses → raise p (double, clamp to grid).
            pn = min(pn * 2, config.pn_max)
        else:
            # All busy → too many responses → lower p (halve, clamp to grid).
            pn = max(pn // 2, config.pn_min)
    n_rough = estimate_cardinality(rho, config.w, config.k, config.p_of(pn))
    return RoughResult(
        n_rough=n_rough,
        n_low=config.c * n_rough,
        pn=pn,
        rho=rho,
        retries=retries,
    )
