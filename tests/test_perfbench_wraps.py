"""The repository benchmark's wrap points still exist and still run.

``perfbench/spans.py`` times layers by replacing public functions at every
import site.  A refactor that renames one, or routes around it, would make
the benchmark silently report zero for that layer; this test runs a tiny
batched BFCE point and a batched LOF point under the span recorder and
checks both layers were seen.
"""

from pathlib import Path

from repro.baselines import LOF
from repro.experiments.runner import run_bfce_trials, run_trials
from repro.rfid.ids import uniform_ids
from repro.rfid.tags import TagPopulation

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_engine_wrap_points_record_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    recorder = spans.Recorder()
    undo = spans.install(recorder)
    try:
        pop = TagPopulation(uniform_ids(2_000, seed=1))
        run_bfce_trials(pop, trials=2, engine="batched")
        run_trials(LOF(), pop, trials=2, engine="batched")
    finally:
        spans.restore(undo)
    names = {record[1] for record in recorder.spans}
    assert {"engine.batched", "baselines.lof"} <= names
