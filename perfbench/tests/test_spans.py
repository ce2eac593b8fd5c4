import asyncio
import sys
import time
import types

import pytest

from spans import Recorder, children_index, restore, total_self, wrap_function


def test_sync_spans_nest_and_self_time_excludes_children():
    rec = Recorder()
    child = rec.span("child", lambda: time.sleep(0.02))

    def parent_body():
        time.sleep(0.01)
        child()
        child()

    rec.span("parent", parent_body)()
    spans = rec.select(("setup",))
    parent = next(s for s in spans if s[1] == "parent")
    kids = [s for s in spans if s[1] == "child"]
    assert all(k[3] == parent[0] for k in kids)
    index = children_index(spans)
    self_s = total_self(spans, "parent", index)
    assert 0.009 < self_s < 0.02
    assert parent[5] - parent[4] > 0.05


def test_async_spans_take_no_parent_and_record_results():
    rec = Recorder()

    async def work(x):
        await asyncio.sleep(0.001)
        return x * 2

    wrapped = rec.async_span("a", work, lambda a, k, r: r)
    outer = rec.span("outer", lambda: asyncio.run(wrapped(21)))
    assert outer() == 42
    a = next(s for s in rec.spans if s[1] == "a")
    assert a[3] == 0 and a[6] == 42


def test_leaf_counts_by_phase_and_by_result():
    rec = Recorder()
    probe = rec.leaf(lambda r: "hit" if r else "miss", lambda x: x)
    probe(1)
    rec.phase = "timed"
    probe(0)
    probe(2)
    assert rec.leaf_totals(("timed",))["hit"][0] == 1
    assert rec.leaf_totals(("timed",))["miss"][0] == 1
    assert rec.leaf_totals(("setup", "timed"))["hit"][0] == 2


def test_wrap_function_replaces_every_reference_and_restores(monkeypatch):
    def target():
        return "original"

    home = types.ModuleType("repro_fake_home")
    home.target = target
    user = types.ModuleType("repro_fake_user")
    user.alias = target
    user.TABLE = {"key": target}
    monkeypatch.setitem(sys.modules, "repro_fake_home", home)
    monkeypatch.setitem(sys.modules, "repro_fake_user", user)
    rec = Recorder()
    undo = wrap_function(home, "target", lambda f: rec.leaf("t", f))
    assert home.target() == user.alias() == user.TABLE["key"]() == "original"
    assert rec.leaf_totals(("setup",))["t"][0] == 3
    restore(undo)
    assert home.target is target and user.alias is target and user.TABLE["key"] is target


def test_kernel_wrapper_records_cpu_and_work():
    rec = Recorder()
    kernel = rec.kernel("kernel.k", lambda a: sum(range(20000)), work=lambda args: len(args[0]))
    kernel([1, 2, 3])
    (_sid, name, _phase, _parent, t0, t1, (cpu, work)) = rec.spans[0]
    assert name == "kernel.k" and work == 3 and t1 >= t0 and cpu >= 0.0


def test_span_pops_stack_when_the_call_raises():
    rec = Recorder()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        rec.span("boom", boom)()
    assert rec._stack() == []
