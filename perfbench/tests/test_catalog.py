import json
import re
from pathlib import Path

from catalog import MOVES

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_every_metric_says_what_it_moves():
    bench = json.loads(BENCHMARK.read_text())
    names = {m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]}
    assert names == set(MOVES)


def test_names_units_and_bounds_are_well_formed():
    bench = json.loads(BENCHMARK.read_text())
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
