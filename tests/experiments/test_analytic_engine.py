"""Statistical equivalence of the analytic engine against the event engines.

The analytic engine's contract is *exact in distribution*, not bit-identity
(DESIGN.md §6).  This suite pins that contract with two-sample tests on
fixed seeds, so every p-value below is deterministic:

* KS tests on n̂ and ρ̄ over 10³ paired BFCE trials, per tagID workload
  (T1/T2/T3);
* KS tests on n̂ for each analytic baseline (LOF/ZOE/SRC);
* a χ² homogeneity test on the slot-occupancy-value histograms of event
  versus analytic frames.

Event-side trials commission a *fresh* population per trial (or per frame,
for the histogram test).  This matters: the tag-side hash is an XOR
permutation of the prestored RN (Sec. IV-E.2), so two tags collide in a
slot iff their RN low bits match — a property frozen at commissioning,
identical in every frame.  A single fixed population therefore carries a
frozen collision multiset whose slot-count histogram is measurably
overdispersed relative to the ideal-hash law (~12 % excess variance at
n/w ≈ 8, shrinking with load).  The analytic engine implements the
ideal-hash law exactly — the same assumption the estimators' analysis
makes — which holds for the event engine *averaged over commissioning*,
i.e. with fresh tagIDs per trial.  (The baseline protocols hash tagIDs
through a mixing hash instead, so their fixed-population trials already
satisfy the assumption.)

Thresholds are p > 10⁻³: under H₀ each individual test fails with
probability 10⁻³, and the fixed seeds were checked to land clear of it.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import chi2_contingency, ks_2samp

from repro.baselines import LOF, SRC, ZOE
from repro.core.bfce import BFCE
from repro.core.config import BFCEConfig
from repro.experiments.runner import run_bfce_trials, run_trials
from repro.experiments.workloads import population
from repro.rfid.frames import slot_response_counts
from repro.rfid.occupancy import sample_slot_counts

P_THRESHOLD = 1e-3
TRIALS = 1_000
N_TRUE = 5_000


def _histogram_pair(event_counts: np.ndarray, analytic_counts: np.ndarray):
    """2×bins contingency table of slot-occupancy values, sparse tail merged."""
    top = int(max(event_counts.max(), analytic_counts.max())) + 1
    table = np.stack(
        [
            np.bincount(event_counts, minlength=top),
            np.bincount(analytic_counts, minlength=top),
        ]
    )
    # Merge sparse bins at both ends until every column has enough mass for
    # the χ² approximation to hold (at mean load ~12 balls/slot both the
    # near-empty and the high-occupancy bins are sparse).
    while table.shape[1] > 2 and table[:, -1].sum() < 20:
        table[:, -2] += table[:, -1]
        table = table[:, :-1]
    while table.shape[1] > 2 and table[:, 0].sum() < 20:
        table[:, 1] += table[:, 0]
        table = table[:, 1:]
    return table


class TestBFCEEquivalence:
    @pytest.mark.parametrize("distribution", ["T1", "T2", "T3"])
    def test_n_hat_and_rho_distributions_match(self, distribution):
        bfce = BFCE()
        # Fresh commissioning per trial — see the module docstring.
        event = [
            bfce.estimate(population(distribution, N_TRUE, seed=s), seed=s)
            for s in range(TRIALS)
        ]
        analytic = [
            bfce.estimate_analytic(N_TRUE, seed=10_000 + s) for s in range(TRIALS)
        ]
        ks_n = ks_2samp([r.n_hat for r in event], [r.n_hat for r in analytic])
        ks_rho = ks_2samp([r.rho_final for r in event], [r.rho_final for r in analytic])
        assert ks_n.pvalue > P_THRESHOLD, f"n_hat KS p={ks_n.pvalue} ({distribution})"
        assert ks_rho.pvalue > P_THRESHOLD, f"rho KS p={ks_rho.pvalue} ({distribution})"

    def test_slot_count_histograms_match(self):
        n, w, pn, frames = 2_000, 256, 512, 150
        reader_rng = np.random.default_rng(100)
        sampler_rng = np.random.default_rng(200)
        # Fresh commissioning per frame — see the module docstring.
        event_counts = np.concatenate(
            [
                slot_response_counts(
                    population("T1", n, seed=f),
                    w=w,
                    seeds=reader_rng.integers(0, 1 << 32, size=3, dtype=np.uint64),
                    p_n=pn,
                )
                for f in range(frames)
            ]
        )
        analytic_counts = np.concatenate(
            [
                sample_slot_counts(sampler_rng, n=n, k=3, p_n=pn, w=w)
                for _ in range(frames)
            ]
        )
        table = _histogram_pair(event_counts, analytic_counts)
        result = chi2_contingency(table)
        assert result.pvalue > P_THRESHOLD, f"slot histogram χ² p={result.pvalue}"


class TestBaselineEquivalence:
    @pytest.mark.parametrize("estimator_cls", [LOF, ZOE, SRC])
    def test_n_hat_distributions_match(self, estimator_cls, pop_small):
        estimator = estimator_cls()
        event = run_trials(estimator, pop_small, trials=TRIALS, base_seed=0)
        analytic = run_trials(
            estimator, pop_small.size, trials=TRIALS, base_seed=50_000, engine="analytic"
        )
        ks = ks_2samp([r.n_hat for r in event], [r.n_hat for r in analytic])
        assert ks.pvalue > P_THRESHOLD, f"{estimator_cls.__name__} KS p={ks.pvalue}"
        assert all(r.extra["engine"] == "analytic" for r in analytic)


class TestBillionScaleAnalytic:
    """n = 10⁹ on the scaled persistence grid (bench_perf_scale's regime).

    No event-engine pairing is possible at this scale (10⁹ tag hashes per
    frame), so the contract checked is the analysis' own accuracy claim:
    with w = 2¹⁷ the guaranteed range reaches ~6.9·10⁹, and every trial
    must land inside the ε = 0.05 envelope with the (ε, δ) plan intact.
    """

    def test_error_envelope_and_guarantee_at_1e9(self):
        cfg = BFCEConfig.scaled(1 << 17)
        bfce = BFCE(config=cfg)
        results = [bfce.estimate_analytic(10**9, seed=s) for s in range(30)]
        errors = np.array([abs(r.n_hat - 10**9) / 10**9 for r in results])
        assert errors.max() < 0.05, f"max relative error {errors.max()}"
        assert all(r.guarantee_met for r in results)

    def test_trials_runner_reaches_1e9(self):
        records = run_bfce_trials(
            10**9,
            trials=3,
            engine="analytic",
            base_seed=7,
            config=BFCEConfig.scaled(1 << 17),
        )
        assert [r.n_true for r in records] == [10**9] * 3
        assert all(abs(r.error) < 0.05 for r in records)


class TestEnginePlumbing:
    def test_plain_cardinality_runs_analytic(self):
        records = run_bfce_trials(12_345, trials=3, engine="analytic", base_seed=5)
        assert [r.n_true for r in records] == [12_345] * 3
        assert all(r.extra["engine"] == "analytic" for r in records)
        assert all(r.n_hat > 0 for r in records)

    def test_plain_cardinality_rejected_by_event_engines(self):
        with pytest.raises(TypeError, match="analytic"):
            run_bfce_trials(12_345, trials=3, engine="batched")

    def test_analytic_baseline_runner_accepts_plain_n(self):
        records = run_trials(LOF(), 4_000, trials=2, engine="analytic")
        assert all(r.n_true == 4_000 for r in records)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_analytic_baseline_runner_rejects_nonpositive_trials(self, trials):
        with pytest.raises(ValueError, match="trials must be positive"):
            run_trials(LOF(), 4_000, trials=trials, engine="analytic")

    def test_unsupported_baseline_rejected(self):
        class CustomLOF(LOF):
            pass

        with pytest.raises(ValueError, match="not supported"):
            run_trials(CustomLOF(), 4_000, trials=2, engine="analytic")
