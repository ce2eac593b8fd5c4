"""Census frames and missing-tag detection (application extension).

The vector BFCE builds is literally a Bloom filter of the tag population —
the estimation protocol just runs it at a *sampled* persistence.  Run one
frame at ``p = 1`` (every tag responds in all k selected slots) and the
reader holds a true Bloom filter of everything in range, at the cost of a
single 8192-bit-slot frame (~0.16 s).  That filter answers the batch-recall
/ tag-searching questions the paper's introduction cites ([4], [5]):

* **membership query** — a tagID whose k slots are all busy was *possibly*
  present (false-positive rate ``(1 − ρ̄)^k``); any idle slot proves it
  absent.  The radio gives no false negatives on a perfect channel.
* **missing-tag detection** — check a manifest of expected tagIDs against
  the census: every definite absence is reported, and the expected number
  of absentees hidden by Bloom false positives is quantified so the caller
  knows how trustworthy "everything seems present" is.

The census frame reuses the estimation machinery end-to-end (same hashes,
same reader, same ledger), so it inherits the constant-time property.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..rfid.hashing import derive_rn_from_ids, xor_bitget_hash
from ..rfid.reader import Reader
from ..rfid.tags import TagPopulation
from .config import BFCEConfig, DEFAULT_CONFIG

__all__ = ["CensusFilter", "take_census", "MissingTagReport"]

_PHASE = "census"


@dataclass(frozen=True)
class CensusFilter:
    """A Bloom filter of the tags present, captured over the air.

    Attributes
    ----------
    busy:
        Boolean length-``w`` vector; True where at least one tag responded.
    seeds:
        The k broadcast seeds (needed to hash query IDs identically).
    w:
        Filter length.
    elapsed_seconds:
        Air time of the census frame (broadcast + w bit-slots).
    """

    busy: np.ndarray
    seeds: np.ndarray
    w: int
    elapsed_seconds: float

    @property
    def fill_fraction(self) -> float:
        """Fraction of busy slots (1 − ρ̄)."""
        return float(self.busy.mean())

    @property
    def false_positive_rate(self) -> float:
        """Approximate probability an absent tag tests positive.

        The paper's XOR/bitget hash correlates a query's k slots: two tags'
        slot indices at *every* seed differ by the same offset
        ``low13(RN_a ⊕ RN_b)``, so any present tag sharing the query's low
        hash bits makes **all k** query slots busy at once.  That
        common-class event alone has probability
        ``q = 1 − (1 − f)^{1/k}`` (with fill ``f = 1 − e^{−k n/w}``), a hard
        FPR floor an ideal Bloom filter does not have.  Conditioned on no
        common-class hit, slot j can still be busy through the k−1
        cross-offset classes, giving the approximation

            fpr ≈ q + (1 − q) · (1 − (1 − f)^{(k−1)/k})^k .

        Residual positive correlation makes the measured rate another
        ~10–20% higher; both sit far above the ideal ``f^k``
        (:attr:`ideal_false_positive_rate`).  A genuine structural cost of
        the hardware-friendly hash; see DESIGN.md §2.7.
        """
        k = len(self.seeds)
        f = self.fill_fraction
        if f >= 1.0:
            return 1.0
        survive = 1.0 - f
        q = 1.0 - survive ** (1.0 / k)
        cross = (1.0 - survive ** ((k - 1) / k)) ** k
        return float(q + (1.0 - q) * cross)

    @property
    def ideal_false_positive_rate(self) -> float:
        """What an ideal (independent) k-hash Bloom filter would give: f^k."""
        return float(self.fill_fraction ** len(self.seeds))

    # ------------------------------------------------------------------
    def contains(self, tag_ids: np.ndarray) -> np.ndarray:
        """Membership query: True where all k hashed slots are busy.

        False means *definitely absent* (perfect channel); True means
        present up to the filter's false-positive rate.
        """
        ids = np.asarray(tag_ids, dtype=np.uint64)
        rn = derive_rn_from_ids(ids)
        out_bits = self.w.bit_length() - 1
        present = np.ones(ids.shape, dtype=bool)
        for seed in self.seeds:
            slots = xor_bitget_hash(rn, int(seed), out_bits).astype(np.int64)
            present &= self.busy[slots]
        return present


def take_census(
    population: TagPopulation,
    *,
    seed: int = 0,
    config: BFCEConfig = DEFAULT_CONFIG,
    reader: Reader | None = None,
) -> CensusFilter:
    """Run one p = 1 frame and return the resulting Bloom filter.

    Note: requires ``rn_source="tagid"`` populations for queryability — the
    reader must be able to recompute a tag's slots from its ID alone.
    """
    if population.rn_source != "tagid":
        raise ValueError(
            "census membership queries need rn_source='tagid' populations "
            "(the reader must recompute slots from tagIDs)"
        )
    rdr = reader if reader is not None else Reader(population, seed=seed)
    rdr.broadcast(config.phase_message, phase=_PHASE)
    seeds = rdr.fresh_seeds(config.k)
    frame = rdr.sense_frame(
        w=config.w, seeds=seeds, p_n=config.pn_denom, observe_slots=config.w,
        phase=_PHASE,
    )
    return CensusFilter(
        busy=frame.bloom == 0,
        seeds=seeds,
        w=config.w,
        elapsed_seconds=rdr.elapsed_seconds(),
    )


@dataclass(frozen=True)
class MissingTagReport:
    """Outcome of checking a manifest against a census filter.

    Attributes
    ----------
    missing_ids:
        Manifest tagIDs proven absent (an idle slot among their k).
    definite_missing:
        Count of proven absentees.
    expected_hidden:
        Expected number of *additional* absentees masked by Bloom false
        positives: ``fpr/(1−fpr) × definite_missing`` (each true absentee is
        detected with probability 1 − fpr independently).
    estimated_missing:
        ``definite_missing + expected_hidden`` — the unbiased absentee count.
    false_positive_rate:
        The census filter's per-query FPR.
    """

    missing_ids: np.ndarray
    definite_missing: int
    expected_hidden: float
    estimated_missing: float
    false_positive_rate: float

    @classmethod
    def from_census(cls, census: CensusFilter, manifest: np.ndarray) -> "MissingTagReport":
        """Check every manifest ID against the census."""
        manifest = np.asarray(manifest, dtype=np.uint64)
        present = census.contains(manifest)
        missing = manifest[~present]
        fpr = census.false_positive_rate
        hidden = missing.size * fpr / (1.0 - fpr) if fpr < 1.0 else float("inf")
        return cls(
            missing_ids=missing,
            definite_missing=int(missing.size),
            expected_hidden=float(hidden),
            estimated_missing=float(missing.size + hidden),
            false_positive_rate=fpr,
        )
