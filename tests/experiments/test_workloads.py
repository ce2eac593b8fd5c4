"""Unit tests for the workload builders."""

import numpy as np
import pytest

from repro.experiments.workloads import (
    CACHE_BYTES_ENV,
    DELTA_SWEEP,
    DISTRIBUTION_NAMES,
    EPS_SWEEP,
    N_SWEEP,
    REFERENCE_N,
    population,
    population_cache_bytes,
    population_cache_clear,
    population_cache_info,
)


class TestGrids:
    def test_paper_parameters(self):
        assert REFERENCE_N == 500_000
        assert EPS_SWEEP[0] == 0.05 and EPS_SWEEP[-1] == 0.30
        assert DELTA_SWEEP == EPS_SWEEP
        assert 1_000 in N_SWEEP and 1_000_000 in N_SWEEP
        assert DISTRIBUTION_NAMES == ("T1", "T2", "T3")


class TestPopulation:
    def test_size_and_type(self):
        pop = population("T1", 5_000, seed=1)
        assert pop.size == 5_000

    def test_cache_returns_same_ids(self):
        a = population("T1", 5_000, seed=1)
        b = population("T1", 5_000, seed=1)
        assert np.array_equal(a.tag_ids, b.tag_ids)

    def test_distinct_coordinates_distinct_ids(self):
        a = population("T1", 5_000, seed=1)
        b = population("T1", 5_000, seed=2)
        c = population("T2", 5_000, seed=1)
        assert not np.array_equal(a.tag_ids, b.tag_ids)
        assert not np.array_equal(a.tag_ids, c.tag_ids)

    def test_variants_share_ids_but_differ_in_behavior(self):
        a = population("T1", 2_000, seed=3, persistence_mode="event")
        b = population("T1", 2_000, seed=3, persistence_mode="static")
        assert np.array_equal(a.tag_ids, b.tag_ids)
        assert a.persistence_mode == "event"
        assert b.persistence_mode == "static"

    def test_populations_are_mutation_safe(self):
        """Each call returns an independent copy; mutating one must not
        poison the cache."""
        a = population("T1", 1_000, seed=4)
        a.tag_ids[0] = 0  # mutate the copy
        b = population("T1", 1_000, seed=4)
        assert b.tag_ids[0] != 0 or b.tag_ids[0] == b.tag_ids[0]
        assert not np.array_equal(a.tag_ids[:1], b.tag_ids[:1])

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            population("nope", 100)


class TestByteBudgetCache:
    def test_budget_env_parsing(self, monkeypatch):
        monkeypatch.delenv(CACHE_BYTES_ENV, raising=False)
        default = population_cache_bytes()
        assert default > 0
        monkeypatch.setenv(CACHE_BYTES_ENV, "1048576")
        assert population_cache_bytes() == 1_048_576
        for garbage in ("not-a-number", "-5", ""):
            monkeypatch.setenv(CACHE_BYTES_ENV, garbage)
            assert population_cache_bytes() == default

    def test_eviction_keeps_cached_bytes_under_budget(self, monkeypatch):
        population_cache_clear()
        one_entry = population("T1", 1_000, seed=0).tag_ids.nbytes
        # room for two entries, not three — the LRU one must be evicted
        monkeypatch.setenv(CACHE_BYTES_ENV, str(int(2.5 * one_entry)))
        for seed in range(3):
            population("T1", 1_000, seed=seed)
        info = population_cache_info()
        assert info.currsize <= int(2.5 * one_entry)
        assert info.currsize == 2 * one_entry
        # seeds 1 and 2 survive; seed 0 was the least recently used
        hits_before = population_cache_info().hits
        population("T1", 1_000, seed=2)
        assert population_cache_info().hits == hits_before + 1
        population("T1", 1_000, seed=0)  # miss: was evicted
        assert population_cache_info().hits == hits_before + 1
        population_cache_clear()

    def test_oversize_population_bypasses_the_cache(self, monkeypatch):
        population_cache_clear()
        monkeypatch.setenv(CACHE_BYTES_ENV, "64")  # smaller than any entry
        a = population("T1", 1_000, seed=0)
        b = population("T1", 1_000, seed=0)
        assert np.array_equal(a.tag_ids, b.tag_ids)  # correct, just uncached
        info = population_cache_info()
        assert info.currsize == 0
        assert info.hits == 0 and info.misses >= 2
        population_cache_clear()


class TestColdPathAvoidsHashUnique:
    """NumPy 2.4's ``unique`` is a hash kernel ~60x slower than a sort on
    10^6 IDs; a cold population build or sweep point must not reach it.
    Patching it to raise makes any regression fail deterministically."""

    def test_cold_build_and_sweep_never_call_numpy_unique(self, monkeypatch, tmp_path):
        from repro.experiments.sweep import SweepPoint, TrialCache, run_sweep
        from repro.rfid.multireader import CoverageMap

        def forbidden(*args, **kwargs):
            raise AssertionError("numpy.unique reached on the cold sweep path")

        population_cache_clear()
        monkeypatch.setattr(np, "unique", forbidden)
        try:
            pop = population("T1", 10**5, seed=17)
            assert pop.size == 10**5
            cover = CoverageMap.random_overlap(pop.tag_ids, 4, overlap=0.2, seed=3)
            assert cover.reader_population(0).size > 0
            common = {"distribution": "T1", "n": 10**4, "trials": 2, "pop_seed": 17}
            points = [
                SweepPoint.bfce_trials(base_seed=5, engine="batched", **common),
                SweepPoint.baseline_trials("LOF", base_seed=6, engine="batched", **common),
            ]
            # A fresh cache directory: both points must execute, not load.
            for payload in run_sweep(points, max_workers=1, cache=TrialCache(tmp_path)):
                assert len(payload["records"]) == 2
        finally:
            population_cache_clear()
