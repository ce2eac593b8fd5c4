"""Unit tests for the tagID population generators (paper Fig. 6)."""

import numpy as np
import pytest

import repro.rfid.ids as ids_mod
from repro.rfid.ids import (
    DISTRIBUTIONS,
    ID_SPACE_MAX,
    all_distinct,
    approx_normal_ids,
    make_ids,
    normal_ids,
    sorted_unique,
    uniform_ids,
)


class TestUniformIds:
    def test_count_and_uniqueness(self):
        ids = uniform_ids(10_000, seed=1)
        assert ids.size == 10_000
        assert np.unique(ids).size == 10_000

    def test_range(self):
        ids = uniform_ids(10_000, seed=2)
        assert ids.min() >= 1 and ids.max() <= ID_SPACE_MAX

    def test_deterministic_for_seed(self):
        assert np.array_equal(uniform_ids(100, seed=3), uniform_ids(100, seed=3))

    def test_seed_changes_output(self):
        assert not np.array_equal(uniform_ids(100, seed=3), uniform_ids(100, seed=4))

    def test_uniform_spread(self):
        ids = uniform_ids(50_000, seed=5).astype(np.float64)
        # Mean of U[1, 1e15] is ~5e14; allow 2% tolerance.
        assert abs(ids.mean() - 5e14) / 5e14 < 0.02

    def test_zero_count(self):
        assert uniform_ids(0, seed=1).size == 0

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            uniform_ids(10, seed=1, low=0)
        with pytest.raises(ValueError):
            uniform_ids(10, seed=1, low=100, high=100)

    def test_generator_instance_accepted(self):
        rng = np.random.default_rng(6)
        ids = uniform_ids(100, rng)
        assert ids.size == 100


class TestNormalIds:
    def test_count_unique_range(self):
        ids = normal_ids(10_000, seed=7)
        assert ids.size == 10_000
        assert np.unique(ids).size == 10_000
        assert ids.min() >= 1 and ids.max() <= ID_SPACE_MAX

    def test_central_concentration(self):
        """T3 is a tight bell: the central half-range holds nearly all mass."""
        ids = normal_ids(20_000, seed=8).astype(np.float64)
        central = ((ids > 2.5e14) & (ids < 7.5e14)).mean()
        assert central > 0.95

    def test_custom_mean_std(self):
        ids = normal_ids(5_000, seed=9, mean=1e14, std=1e13).astype(np.float64)
        assert abs(ids.mean() - 1e14) / 1e14 < 0.05

    def test_invalid_std(self):
        with pytest.raises(ValueError):
            normal_ids(10, seed=1, std=0.0)


class TestApproxNormalIds:
    def test_count_unique_range(self):
        ids = approx_normal_ids(10_000, seed=10)
        assert ids.size == 10_000
        assert np.unique(ids).size == 10_000
        assert ids.min() >= 1 and ids.max() <= ID_SPACE_MAX

    def test_heavier_tails_than_normal(self):
        """T2's contamination puts more mass in the outer 20% of the range
        than T3 does."""
        t2 = approx_normal_ids(20_000, seed=11).astype(np.float64)
        t3 = normal_ids(20_000, seed=11).astype(np.float64)
        outer = lambda x: ((x < 1e14) | (x > 9e14)).mean()  # noqa: E731
        assert outer(t2) > outer(t3)

    def test_still_bell_shaped(self):
        ids = approx_normal_ids(20_000, seed=12).astype(np.float64)
        central = ((ids > 2.5e14) & (ids < 7.5e14)).mean()
        assert central > 0.5

    def test_contamination_validated(self):
        with pytest.raises(ValueError):
            approx_normal_ids(10, seed=1, contamination=1.5)


class TestRegistry:
    def test_names(self):
        assert set(DISTRIBUTIONS) == {"T1", "T2", "T3", "T4"}

    def test_t4_structured(self):
        """T4 (extension): structured SGTIN EPCs, unique and estimable."""
        ids = make_ids("T4", 2_000, seed=9)
        assert np.unique(ids).size == 2_000

    @pytest.mark.parametrize("name", ["T1", "T2", "T3", "T4"])
    def test_make_ids(self, name):
        ids = make_ids(name, 1_000, seed=13)
        assert ids.size == 1_000
        assert np.unique(ids).size == 1_000

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown distribution"):
            make_ids("T9", 10)

    def test_distribution_sample_method(self):
        ids = DISTRIBUTIONS["T1"].sample(50, seed=14)
        assert ids.size == 50


class TestSortedDedupe:
    """The sort-based dedupe must reproduce NumPy's ``unique`` exactly: every
    generator's output (and so every seeded population) depends on it."""

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [7],
            [5, 5, 5],
            [9, 3, 9, 1, 3, 3, 2**63 + 1, 0],
            list(range(10, 0, -1)),
            np.random.default_rng(0).integers(0, 500, size=2_000).tolist(),
        ],
    )
    def test_sorted_unique_matches_numpy_unique(self, values):
        arr = np.array(values, dtype=np.uint64)
        out = sorted_unique(arr)
        assert out.dtype == np.uint64
        assert np.array_equal(out, np.unique(arr))

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([], True),
            ([4], True),
            ([1, 2, 3], True),
            ([3, 2, 1], True),
            ([2, 9, 1, 5], True),
            ([1, 2, 2, 3], False),
            ([3, 1, 2, 1], False),
            ([6, 6, 6], False),
        ],
    )
    def test_all_distinct(self, values, expected):
        assert all_distinct(np.array(values, dtype=np.uint64)) is expected


class TestGeneratorsMatchUniqueReference:
    """Each generator equals a run whose dedupe is NumPy's ``unique``."""

    CASES = [
        (uniform_ids, 5_000, 11, {}),
        (normal_ids, 5_000, 12, {}),
        (approx_normal_ids, 5_000, 13, {}),
        (normal_ids, 500, 14, {"low": 1, "high": 2_000}),
        (approx_normal_ids, 500, 15, {"low": 1, "high": 2_000}),
    ]

    @pytest.mark.parametrize("gen, n, seed, kwargs", CASES)
    def test_pinned_seed(self, monkeypatch, gen, n, seed, kwargs):
        got = gen(n, seed=seed, **kwargs)
        monkeypatch.setattr(ids_mod, "sorted_unique", np.unique)
        ref = gen(n, seed=seed, **kwargs)
        assert got.dtype == ref.dtype == np.uint64
        assert np.array_equal(got, ref)

    def test_narrow_range_resamples(self, monkeypatch):
        """1000 draws from 1500 values collide, so ``_unique_fill`` must go
        round its resampling loop; the result still equals the reference."""
        calls = []

        def counting(values):
            calls.append(values.size)
            return sorted_unique(values)

        monkeypatch.setattr(ids_mod, "sorted_unique", counting)
        got = uniform_ids(1000, seed=3, low=1, high=1500)
        assert len(calls) > 1
        monkeypatch.setattr(ids_mod, "sorted_unique", np.unique)
        ref = uniform_ids(1000, seed=3, low=1, high=1500)
        assert np.array_equal(got, ref)
        assert got.size == 1000 and all_distinct(got)
