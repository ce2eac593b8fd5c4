import math

import pytest

from stats import (
    covered_length,
    min_samples_for,
    nearest_rank,
    percentile_block,
    samples_beyond,
    self_time,
)


def test_nearest_rank_matches_hand_computed_ranks():
    values = list(range(1, 101))  # 1..100
    assert nearest_rank(values, 0.50) == 50
    assert nearest_rank(values, 0.99) == 99
    assert nearest_rank(values, 1.0) == 100
    assert nearest_rank([7.0], 0.99) == 7.0
    # ceil(0.99 * 1000) = 990 exactly, not 991 from float error.
    assert nearest_rank(list(range(1, 1001)), 0.99) == 990


def test_nearest_rank_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0.0)


def test_tail_rule_needs_ten_samples_beyond_p99():
    assert samples_beyond(999, 0.99) == 9
    assert samples_beyond(1000, 0.99) == 10
    assert min_samples_for(0.99) == 1000
    assert min_samples_for(0.50) == 20
    short = percentile_block([float(i) for i in range(999)])
    assert short["p99"] is None and not short["p99_valid"]
    assert short["p50_valid"] and short["samples"] == 999
    full = percentile_block([float(i) for i in range(1000)])
    assert full["p99_valid"] and full["p99_beyond"] == 10
    assert full["p99"] == 989.0


def test_failed_requests_count_as_over_any_limit():
    values = [1.0] * 985 + [math.inf] * 15
    block = percentile_block(values)
    assert block["p99"] == math.inf
    assert block["p50"] == 1.0


def test_self_time_subtracts_nested_children_once():
    # parent [0, 10]; child [2, 5] with its own child [3, 4] listed too
    assert self_time(0.0, 10.0, [(2.0, 5.0), (3.0, 4.0)]) == pytest.approx(7.0)


def test_self_time_merges_overlapping_children():
    # two concurrent children [1, 6] and [4, 8] cover [1, 8] once
    assert self_time(0.0, 10.0, [(1.0, 6.0), (4.0, 8.0)]) == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    # a child that started before / ended after the parent only counts inside it
    assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == pytest.approx(2.0)
    assert self_time(2.0, 6.0, [(7.0, 9.0)]) == pytest.approx(4.0)
    assert covered_length([], 0.0, 1.0) == 0.0

