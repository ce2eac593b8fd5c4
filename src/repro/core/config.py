"""BFCE protocol configuration.

All constants of Algorithms 1–2 and Sections IV-C/IV-D gathered in one
frozen dataclass, with the paper's values as defaults:

* ``w = 8192`` — Bloom vector length (bounds scalability to γ_max·w ≈ 19.4 M);
* ``k = 3`` — hash functions ("empirically set ... for a reasonable tradeoff");
* ``c = 0.5`` — lower-bound coefficient, n̂_low = c·n̂_r;
* rough phase observes 1024 of the 8192 slots;
* probing uses 32-slot frames starting at p_s = 8/1024, stepping +2/1024 on
  all-idle and −1/1024 on all-busy;
* the persistence grid is {1, …, 1023}/1024.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

__all__ = ["BFCEConfig", "DEFAULT_CONFIG"]


@dataclass(frozen=True)
class BFCEConfig:
    """Protocol constants for one BFCE deployment.

    Attributes
    ----------
    w:
        Bloom filter vector length (power of two; the tag hash keeps the low
        ``log2 w`` bits).
    k:
        Number of hash functions / broadcast seeds.
    c:
        Rough-lower-bound coefficient in ``n̂_low = c·n̂_r`` (Sec. IV-C,
        valid range (0, 1]; paper sweeps 0.1–0.9 and fixes 0.5).
    rough_slots:
        Slots observed in the rough-estimation frame (frame is announced at
        ``w`` but terminated early; Sec. IV-C uses 1024).
    probe_slots:
        Slots observed per probing round (Sec. IV-C uses 32).
    probe_start_pn:
        Initial persistence numerator of the probe (8 → p_s = 8/1024).
    probe_step_up:
        Numerator increment when all probe slots are idle (2).
    probe_step_down:
        Numerator decrement when all probe slots are busy (1).
    max_probe_rounds:
        Safety cap on probing rounds (the paper expects "several tests";
        the cap only guards degenerate populations such as n = 0).
    pn_denom:
        Denominator of the persistence grid (1024 = 2¹⁰).
    seed_bits, p_bits:
        Field widths of the parameter broadcast (Sec. V-A fixes both at 32).
    preloaded_constants:
        Whether ``w`` and ``k`` are preloaded on tags (not transmitted),
        as the paper's overhead analysis assumes.
    """

    w: int = 8192
    k: int = 3
    c: float = 0.5
    rough_slots: int = 1024
    probe_slots: int = 32
    probe_start_pn: int = 8
    probe_step_up: int = 2
    probe_step_down: int = 1
    max_probe_rounds: int = 64
    pn_denom: int = 1024
    seed_bits: int = 32
    p_bits: int = 32
    preloaded_constants: bool = True

    def __post_init__(self) -> None:
        if self.w <= 0 or (self.w & (self.w - 1)) != 0:
            raise ValueError(f"w must be a power of two, got {self.w}")
        if self.k <= 0:
            raise ValueError("k must be positive")
        if not 0 < self.c <= 1:
            raise ValueError(f"c must be in (0, 1], got {self.c}")
        if not 1 <= self.rough_slots <= self.w:
            raise ValueError("rough_slots must be in [1, w]")
        if not 1 <= self.probe_slots <= self.w:
            raise ValueError("probe_slots must be in [1, w]")
        if self.pn_denom <= 1 or (self.pn_denom & (self.pn_denom - 1)) != 0:
            raise ValueError("pn_denom must be a power of two > 1")
        if not 1 <= self.probe_start_pn < self.pn_denom:
            raise ValueError("probe_start_pn must be in [1, pn_denom)")
        if self.probe_step_up <= 0 or self.probe_step_down <= 0:
            raise ValueError("probe steps must be positive")
        if self.max_probe_rounds <= 0:
            raise ValueError("max_probe_rounds must be positive")
        if self.seed_bits <= 0 or self.p_bits <= 0:
            raise ValueError("field widths must be positive")

    @property
    def pn_min(self) -> int:
        """Smallest persistence numerator on the grid (1)."""
        return 1

    @property
    def pn_max(self) -> int:
        """Largest persistence numerator on the grid (pn_denom − 1)."""
        return self.pn_denom - 1

    @cached_property
    def phase_message(self):
        """The parameter broadcast opening every BFCE phase frame.

        Built here, once per config, so every engine and phase — probe,
        rough, accurate, multi-reader — meters the same field widths.
        """
        from ..rfid.protocol import bfce_phase_message  # rfid imports core

        return bfce_phase_message(
            self.k,
            preloaded_constants=self.preloaded_constants,
            seed_bits=self.seed_bits,
            p_bits=self.p_bits,
        )

    def p_of(self, pn: int) -> float:
        """Convert a persistence numerator to the probability p = pn/denom."""
        if not 0 <= pn <= self.pn_denom:
            raise ValueError(f"pn out of range [0, {self.pn_denom}]")
        return pn / self.pn_denom

    @classmethod
    def scaled(cls, w: int, **overrides) -> "BFCEConfig":
        """The paper's configuration scaled to frame size ``w``.

        The persistence grid refines in proportion to the frame
        (``pn_denom = 1024·w/8192``), so the optimal-p search can express
        the tiny per-tag probabilities that populations far beyond the
        default design range need, instead of clamping at the 1/1024 grid
        floor and overloading the accurate frame.  Probe start and step
        numerators scale by the same factor, keeping the probe walk
        identical in probability space to the paper's.

        The event tag hash only implements the 1/1024 grid, so scaled
        configs (w > 8192) run on the analytic engine; the event engines
        reject them with a grid-mismatch error.
        """
        factor = max(1, w // 8192)
        params = {
            "w": w,
            "pn_denom": 1024 * factor,
            "probe_start_pn": 8 * factor,
            "probe_step_up": 2 * factor,
            "probe_step_down": 1 * factor,
        }
        params.update(overrides)
        return cls(**params)


#: The paper's configuration.
DEFAULT_CONFIG = BFCEConfig()
