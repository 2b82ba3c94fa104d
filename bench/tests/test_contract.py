"""``BENCHMARK.json`` and the code agree on every name and unit."""

import json
from pathlib import Path

from bench import layers, workloads
from bench.metrics import END_TO_END

CONTRACT = json.loads(
    (Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json").read_text()
)


def test_workloads_match():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)


def test_end_to_end_metrics_are_known_with_their_unit_and_direction():
    for metric in CONTRACT["end_to_end"]:
        unit, better, _ = END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
        assert 0 < metric["bound"] <= 0.25


def test_per_layer_metrics_are_exactly_the_traced_runs():
    listed = {m["name"]: (m["unit"], m["better"]) for m in CONTRACT["per_layer"]}
    assert listed == layers.PER_LAYER
