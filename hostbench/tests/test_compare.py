import json
from pathlib import Path

from hostbench import compare, run

ROOT = Path(__file__).resolve().parents[2]


def test_clear_gain_is_better():
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change = [p * 1.2 for p in parent]
    assert compare.verdict(parent, change, "higher", 0.1) == "better"
    assert compare.verdict(parent, [p / 1.2 for p in parent], "lower",
                           0.1) == "better"


def test_regression_beyond_bound_is_worse():
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert compare.verdict(parent, [p * 0.8 for p in parent], "higher",
                           0.1) == "worse"


def test_small_or_mixed_change_is_unchanged():
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change = [101.0, 100, 100, 99, 103, 99, 99, 102, 98, 101]
    assert compare.verdict(parent, change, "higher", 0.1) == "unchanged"


def test_wins_without_clearing_parent_spread_is_unchanged():
    parent = [100.0, 104, 96, 100, 103, 97, 100, 104, 96, 100]
    change = [p + 0.5 for p in parent]      # wins 10/10, gap < IQR
    assert compare.verdict(parent, change, "higher", 0.1) == "unchanged"


def test_spread_beyond_bound_is_unresolved():
    parent = [50.0, 150, 60, 140, 100, 80, 120, 70, 130, 100]
    change = [p * 1.05 for p in parent]
    assert compare.verdict(parent, change, "higher", 0.1) == "unresolved"
    disjoint = [200.0 + i for i in range(10)]
    assert compare.verdict(parent, disjoint, "higher", 0.1) == "better"


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.TAIL_PERCENTILE) == set(run.WORKLOADS)
