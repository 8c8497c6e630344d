"""Tests for the timing helpers backing the perf benchmark harness."""

import json

import numpy as np
import pytest

from repro.utils.timing import (
    Timer,
    TimingResult,
    load_bench_json,
    machine_info,
    time_callable,
    write_bench_json,
)


class TestTimer:
    def test_measures_positive_interval(self):
        with Timer() as t:
            sum(range(1000))
        assert t.seconds >= 0.0


class TestTimeCallable:
    def test_basic_stats(self):
        calls = []
        result = time_callable(lambda: calls.append(1), name="noop", repeats=3, warmup=2)
        assert len(calls) == 5  # warmup + repeats all execute
        assert result.name == "noop"
        assert result.repeats == 3
        assert 0.0 <= result.best_seconds <= result.mean_seconds

    def test_items_per_second(self):
        result = TimingResult(name="x", best_seconds=0.5, mean_seconds=0.5, repeats=1,
                              items_per_call=100)
        assert result.items_per_second == pytest.approx(200.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            time_callable(lambda: None, warmup=-1)

    def test_to_dict_round_trips_through_json(self):
        result = time_callable(lambda: None, name="noop", repeats=2, warmup=0)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["name"] == "noop"
        assert payload["repeats"] == 2


class TestBenchJson:
    def test_write_and_load(self, tmp_path):
        path = tmp_path / "nested" / "BENCH_test.json"
        write_bench_json(path, {"metric": 1.5, "nested": {"a": [1, 2]}})
        loaded = load_bench_json(path)
        assert loaded["metric"] == 1.5
        assert loaded["nested"] == {"a": [1, 2]}
        assert "machine" in loaded and "numpy" in loaded["machine"]

    def test_load_missing_returns_none(self, tmp_path):
        assert load_bench_json(tmp_path / "absent.json") is None


class TestMachineInfo:
    def test_fingerprint_fields(self):
        info = machine_info()
        assert info["numpy"] == np.__version__
        assert info["cpu_count"] >= 1
        # the caller's BLAS pool and the pinned simulation count; both are
        # None together when no OpenBLAS thread controls are found
        assert (info["blas_threads"] is None) == (info["simulation_blas_threads"] is None)
        if info["blas_threads"] is not None:
            assert info["blas_threads"] >= 1
            assert info["simulation_blas_threads"] == 1
