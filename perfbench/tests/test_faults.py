"""Failures that must fail a run rather than only count against it."""

import json

from serve import RECORD_CHANGED, Served, _faults


def _line(zone, seed, n_hat):
    record = {"n_hat": n_hat, "seed": seed}
    body = {"ok": True, "zone": zone, "seed": seed, "record": record}
    return (json.dumps(body, separators=(",", ":")) + "\n").encode()


def test_a_repeated_request_answered_differently_is_a_fault():
    served = Served()
    assert served(None, _line("z0", 7, 100.0), 0.0)
    assert served(None, _line("z0", 7, 100.0), 0.0)
    assert not served(None, _line("z0", 7, 101.0), 0.0)
    assert served.failures == {RECORD_CHANGED: 1}
    faults = _faults({"served": served, "capacity": {"failed": 0, "lost": 0}})
    assert faults["record_changed"] == 1


def test_refusals_and_losses_in_the_capacity_phase_are_faults():
    served = Served()
    assert not served(None, b'{"ok":false,"code":429,"id":3}\n', 0.0)
    faults = _faults({"served": served, "capacity": {"failed": 1, "lost": 2}})
    assert faults == {"record_changed": 0, "capacity_failed": 1, "capacity_lost": 2}


def test_sweep_check_counts_points_that_returned_no_records():
    from sweep_main import check, grid

    first_pass = [{"error": "boom"} for _ in grid(3, 0)]
    out = check(3, first_pass)
    assert len(out["mismatches"]) == len(first_pass)
    assert out["serial_trials_checked"] == 0
