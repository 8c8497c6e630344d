"""Self-tests of the benchmark's own logic: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest

from spans import Tracer, self_time
from stats import TAIL_BEYOND, median, poisson_schedule, tail
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
METRIC_MAP = json.loads((HERE / "metric_map.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class TestTailRule:
    def test_highest_percentile_with_ten_samples_beyond(self):
        values = list(range(1, 1001))  # 1..1000
        value, percentile, count = tail(values)
        assert count == 1000
        assert value == 990
        assert sum(v > value for v in values) == TAIL_BEYOND
        assert percentile == pytest.approx(99.0)

    def test_percentile_follows_sample_count(self):
        value, percentile, count = tail(list(range(1, 501)))
        assert (value, count) == (490, 500)
        assert percentile == pytest.approx(98.0)

    def test_small_samples_report_the_median(self):
        for n in (1, 2, 7, 20):
            values = [float(v) for v in range(n)]
            assert tail(values) == (median(values), 50.0, n)
        value, percentile, _ = tail([float(v) for v in range(21)])
        assert value == 10.0 and percentile > 50.0

    def test_failures_count_as_infinitely_late(self):
        values = [1.0] * 100 + [math.inf] * TAIL_BEYOND
        assert tail(values)[0] == 1.0
        assert math.isinf(tail(values + [math.inf])[0])

    def test_order_does_not_matter(self):
        assert tail([5.0, 1.0, 3.0] * 10) == tail(sorted([5.0, 1.0, 3.0] * 10))


class TestSelfTime:
    def test_no_children(self):
        assert self_time(1.0, 4.0, []) == 3.0

    def test_nested_children(self):
        tracer = Tracer()
        root = tracer.add("root", 0.0, 10.0)
        child = tracer.add("child", 1.0, 9.0, parent=root)
        tracer.add("grandchild", 2.0, 5.0, parent=child)
        times = tracer.self_times()
        assert times[root] == pytest.approx(2.0)
        assert times[child] == pytest.approx(5.0)

    def test_overlapping_children_count_once(self):
        # [1,3] and [2,5] overlap: together they cover [1,5]
        assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0)]) == pytest.approx(6.0)
        # a child inside another covers nothing new
        assert self_time(0.0, 10.0, [(1.0, 6.0), (2.0, 3.0)]) == pytest.approx(5.0)

    def test_children_clipped_to_parent(self):
        assert self_time(0.0, 10.0, [(-2.0, 1.0), (8.0, 12.0)]) == pytest.approx(7.0)

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x"):
            pass
        tracer.add("y", 0.0, 1.0)
        tracer.count("z", 1)
        assert tracer.spans == [] and tracer.counts == {}


class TestSchedule:
    def test_same_seed_same_schedule(self):
        assert poisson_schedule(60.0, 10.0, seed=7) == poisson_schedule(60.0, 10.0, seed=7)

    def test_other_seed_other_schedule(self):
        assert poisson_schedule(60.0, 10.0, seed=7) != poisson_schedule(60.0, 10.0, seed=8)

    def test_arrivals_sorted_inside_the_window_at_the_rate(self):
        arrivals = poisson_schedule(50.0, 100.0, seed=3)
        assert arrivals == sorted(arrivals)
        assert 0.0 < arrivals[0] and arrivals[-1] < 100.0
        assert len(arrivals) == pytest.approx(5000, rel=0.05)


class TestBenchmarkFile:
    def test_names_and_units(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in BENCHMARK[group]]
            for metric in BENCHMARK[group]:
                assert UNIT.fullmatch(metric["unit"]), metric
                assert metric["better"] in ("higher", "lower"), metric
        for name in names:
            assert NAME.fullmatch(name), name
        assert len(names) == len(set(names))

    def test_workloads_match_the_code(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
        for workload in BENCHMARK["workloads"]:
            assert set(workload) == {"name", "why"}
            assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]

    def test_end_to_end_contract(self):
        metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}
        assert metrics["setup_s"]["unit"] == "s" and metrics["setup_s"]["better"] == "lower"
        assert max(m["bound"] for m in metrics.values()) == metrics["setup_s"]["bound"]
        for metric in metrics.values():
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25

    def test_every_per_layer_metric_names_what_it_should_move(self):
        end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
        per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
        assert set(per_layer) == set(METRIC_MAP)
        for name in per_layer:
            entry = METRIC_MAP[name]
            assert entry["why"], name
            for move in entry["moves"]:
                assert move["metric"] in end_to_end, (name, move)
                assert move["workload"] in WORKLOADS, (name, move)
