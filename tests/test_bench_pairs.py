"""The pair summary of tools/bench_pairs.py, on canned run lines: no
benchmark runs here."""

import json
from pathlib import Path

import pytest

import bench_pairs

METRICS = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())[
    "end_to_end"
]


def _line(wall, rss, failed=0, correct=True):
    values = {"wall_ref": wall, "op_ref.p50": wall / 4, "peak_rss_mb": rss, "setup_s": 0.3}
    return {"correct": correct, "attempted": 8, "failed": failed,
            "metrics": {name: {"value": v, "unit": "u"} for name, v in values.items()}}


def _runs(workload, parent, change):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, line in (("parent", p), ("change", c))[:: 1 if pair % 2 == 0 else -1]:
            runs.append({"pair": pair, "side": side, "workload": workload, "seed": 1 + pair,
                         "result": line})
    return runs


def test_summary_medians_quartiles_and_wins():
    parent = [_line(w, 48.0) for w in (30.0, 28.0, 26.0, 32.0, 24.0)]
    change = [_line(w, r) for w, r in ((25.0, 48.5), (29.0, 47.0), (22.0, 48.0),
                                       (27.0, 48.1), (20.0, 47.9))]
    summary = bench_pairs.summarize(_runs("certify_eligible", parent, change), METRICS)
    out = summary["certify_eligible"]
    assert out["pairs"] == 5 and out["failed"] == 0 and out["all_correct"]
    wall = out["wall_ref"]
    # inclusive quartiles of 24, 26, 28, 30, 32 and of 20, 22, 25, 27, 29
    assert wall["parent"] == [26.0, 28.0, 30.0]
    assert wall["change"] == [22.0, 25.0, 27.0]
    # lower is better: the change wins every pair but the second
    assert wall["change_wins"] == 4
    assert out["op_ref.p50"]["change_wins"] == 4
    # an equal figure is no win
    assert out["peak_rss_mb"]["change_wins"] == 2
    assert out["setup_s"]["change_wins"] == 0


def test_summary_keeps_workloads_apart_and_counts_failures():
    runs = _runs("certify_eligible", [_line(30.0, 48.0)], [_line(29.0, 48.0, failed=1)])
    runs += _runs("conditions_small", [_line(3.0, 32.0), _line(3.2, 32.0)],
                  [_line(3.1, 32.0), _line(3.1, 32.0, correct=False)])
    # a pair with one side only is left out
    runs.append({"pair": 2, "side": "parent", "workload": "conditions_small", "seed": 3,
                 "result": _line(1.0, 1.0)})
    summary = bench_pairs.summarize(runs, METRICS)
    assert list(summary) == ["certify_eligible", "conditions_small"]
    assert summary["certify_eligible"]["failed"] == 1
    assert summary["certify_eligible"]["all_correct"]
    small = summary["conditions_small"]
    assert small["pairs"] == 2 and not small["all_correct"]
    assert small["wall_ref"]["parent"] == pytest.approx([3.05, 3.1, 3.15])
    assert small["wall_ref"]["change_wins"] == 1

