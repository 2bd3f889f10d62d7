"""Checks of the benchmark's own arithmetic; no library code runs here.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
from pathlib import Path

import pytest

from measure import (
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    classify_cap,
    percentile,
    reference_failure,
    tail_percentile,
)
from tracer import Tracer, self_times
from workloads import WORKLOADS, Item, blocks, strata


@pytest.mark.parametrize(
    "n, expected",
    [(9, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50.0) == pytest.approx(50.5)
    assert percentile(values, 90.0) == pytest.approx(90.1)
    assert percentile([3.0], 99.0) == 3.0


def test_self_time_subtracts_direct_children_only():
    # root [0,10] > a [1,6] > b [2,5] > a [3,4] (nested twin), root > c [7,9]
    names = ["root", "a", "b", "c"]
    label = [0, 1, 2, 1, 3]
    start = [0.0, 1.0, 2.0, 3.0, 7.0]
    end = [10.0, 6.0, 5.0, 4.0, 9.0]
    parent = [-1, 0, 1, 2, 0]
    self_s, wall_s, count = self_times(names, label, start, end, parent)
    assert self_s == {"root": 3.0, "a": 2.0 + 1.0, "b": 2.0, "c": 2.0}
    assert wall_s == {"root": 10.0, "a": 5.0 + 1.0, "b": 3.0, "c": 2.0}
    assert count == {"root": 1, "a": 2, "b": 1, "c": 1}
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_wrapped_calls_nest_and_fold_recursion():
    tracer = Tracer()

    def inner():
        return 1

    traced_inner = tracer.wrap("inner", inner)

    def outer(depth):
        return traced_outer(depth - 1) if depth else traced_inner()

    traced_outer = tracer.wrap("outer", outer)
    tracer.call_id = 7
    assert traced_outer(3) == 1
    tracer.call_id = 8
    assert traced_inner() == 1
    spans = list(tracer.spans())
    assert [s[0] for s in spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in spans] == [-1, 0, -1]
    assert [s[4] for s in spans] == [7, 7, 8]
    assert all(s[1] <= s[2] for s in spans)
    assert spans[0][1] <= spans[1][1] <= spans[1][2] <= spans[0][2]


@pytest.mark.parametrize(
    "reference, got, fails",
    [("T", "T", False), ("N", "N", False), ("T", "N", True), ("N", "T", True),
     ("T", "C", True), ("N", "C", True), ("C", "C", False), ("C", "T", False),
     ("C", "N", False), ("C", "E", True), ("T", "E", True)],
)
def test_reference_comparison(reference, got, fails):
    assert (reference_failure(reference, got) is not None) == fails


@pytest.mark.parametrize(
    "atoms, cap, slack, cause",
    [(26, 1 << 20, 64, "count"), (27, 1 << 20, 64, "space"), (40, 1 << 20, 64, "space"),
     (6, 100, 1, "count"), (7, 100, 1, "space"), (30, 1 << 20, None, "count")],
)
def test_cap_cause_classification(atoms, cap, slack, cause):
    # the space pre-check refuses 2**atoms > cap * slack before enumerating
    assert classify_cap(atoms, cap, slack) == cause
    if slack is not None:
        assert (cause == "space") == (2 ** atoms > cap * slack)


def test_strata_cut_each_group_by_cost_rank():
    workload = WORKLOADS["enum-heavy"]
    k = workload.stratum_size
    costs = [float(c) for c in range(10 * k + 5)]
    items = [Item("glpstar", f"f{i}", "N", 5, c) for i, c in enumerate(reversed(costs))]
    items += [Item("glpstar", f"c{i}", "C", 30, 1.0) for i in range(k - 1)]
    groups = strata(items, workload)
    assert sorted(len(m) for m in groups) == [k - 1] + [k] * 9 + [k + 5]
    decided = [m for m in groups if m[0].verdict == "N"]
    assert all(i.verdict == "C" for m in groups if m not in decided for i in m)
    bounds = [(min(i.cost for i in m), max(i.cost for i in m)) for m in decided]
    assert all(hi < lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))


def test_oracle_strata_keep_common_model_counts_apart():
    workload = WORKLOADS["oracle-exhaust"]
    k = workload.stratum_size
    models = [1] * (2 * k + 3) + [62] * k + [5] * 3 + [9] * 2
    items = [Item("jstar", f"f{i}", "T", 3, float(m)) for i, m in enumerate(models)]
    groups = strata(items, workload)
    costs = sorted((sorted({i.cost for i in m}), len(m)) for m in groups)
    assert costs == [([1.0], k), ([1.0], k + 3), ([5.0, 9.0], 5), ([62.0], k)]


def _pool(n):
    return [Item("glpstar", f"f{i}", "TN"[i % 2], 5, 2.0 ** (i % 12)) for i in range(n)]


def test_blocks_take_one_item_per_stratum_and_depend_on_seed():
    workload = WORKLOADS["enum-heavy"]
    items = _pool(1200)
    first = next(blocks(items, workload, seed=1))
    again = next(blocks(items, workload, seed=1))
    other = next(blocks(items, workload, seed=2))
    assert first == again
    assert first != other
    rank = {item.text: k for k, members in enumerate(strata(items, workload)) for item in members}
    stream = blocks(items, workload, seed=3)
    for block in (next(stream), next(stream), other):
        assert sorted(rank[i.text] for i in block) == list(range(len(rank) // workload.stratum_size))


def test_blocks_use_every_member_before_repeating():
    workload = WORKLOADS["oracle-exhaust"]
    k = workload.stratum_size
    items = [Item("jstar", f"f{i}", "N", 3, 10) for i in range(k * 7)]
    stream = blocks(items, workload, seed=0)
    seen = [item.text for _ in range(k) for item in next(stream)]
    assert sorted(seen) == sorted(item.text for item in items)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
