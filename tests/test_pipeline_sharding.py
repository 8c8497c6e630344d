"""Sharded pipeline evaluation (``PipelineConfig(num_workers=...)``).

The pipeline splits the test set into contiguous whole-batch shards, runs
them in worker processes and merges the statistics in shard order — the
merged run must be *identical* to the sequential one.  On 1-CPU machines the
shard request falls back to in-process execution with a logged note
(``REPRO_FORCE_SHARDING=1`` overrides the guard so the real worker path is
exercised even here).
"""

import logging
import os

import numpy as np
import pytest

from repro.core.hybrid import HybridCodingScheme
from repro.core.pipeline import PipelineConfig, SNNInferencePipeline


@pytest.fixture(scope="module")
def scheme():
    return HybridCodingScheme.from_notation("phase-burst", v_th=0.125)


def _pipeline(model, data, **overrides):
    defaults = dict(time_steps=25, batch_size=4, max_test_images=8, seed=0)
    defaults.update(overrides)
    return SNNInferencePipeline(model, data, PipelineConfig(**defaults))


def _runs_equal(a, b) -> None:
    assert np.array_equal(a.recorded_steps, b.recorded_steps)
    assert np.array_equal(a.accuracy_curve, b.accuracy_curve)
    assert np.array_equal(a.cumulative_spikes, b.cumulative_spikes)
    assert np.array_equal(a.outputs_final, b.outputs_final)
    assert a.num_images == b.num_images
    assert a.total_spikes == b.total_spikes


class TestShardRanges:
    def test_whole_batch_contiguous_split(self, trained_cnn, tiny_color_split):
        pipeline = _pipeline(trained_cnn, tiny_color_split, batch_size=4)
        assert pipeline._shard_ranges(8, 2) == [(0, 4), (4, 8)]
        assert pipeline._shard_ranges(8, 1) == [(0, 8)]
        # 3 batches over 2 workers: 2 + 1
        assert pipeline._shard_ranges(12, 2) == [(0, 8), (8, 12)]
        # ragged tail stays in the last shard
        assert pipeline._shard_ranges(10, 2) == [(0, 8), (8, 10)]

    def test_resolve_workers_guards(self, trained_cnn, tiny_color_split, monkeypatch, caplog):
        pipeline = _pipeline(trained_cnn, tiny_color_split, num_workers=4)
        monkeypatch.delenv("REPRO_FORCE_SHARDING", raising=False)
        # the project logger does not propagate by default; let caplog see it
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        if (os.cpu_count() or 1) <= 1:
            with caplog.at_level(logging.INFO, logger="repro.core.pipeline"):
                assert pipeline._resolve_workers(num_batches=4) == 1
            assert any("single CPU" in message for message in caplog.messages)
            monkeypatch.setenv("REPRO_FORCE_SHARDING", "1")
            assert pipeline._resolve_workers(num_batches=4) > 1
        else:
            assert pipeline._resolve_workers(num_batches=4) > 1
        # a single batch never shards
        assert pipeline._resolve_workers(num_batches=1) == 1

    def test_sequential_when_unset(self, trained_cnn, tiny_color_split):
        pipeline = _pipeline(trained_cnn, tiny_color_split)
        assert pipeline._resolve_workers(num_batches=4) == 1


class TestShardedEquality:
    def test_single_cpu_fallback_matches_sequential(
        self, trained_cnn, tiny_color_split, scheme, monkeypatch, caplog
    ):
        monkeypatch.delenv("REPRO_FORCE_SHARDING", raising=False)
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        sequential = _pipeline(trained_cnn, tiny_color_split).run_scheme(scheme)
        with caplog.at_level(logging.INFO, logger="repro.core.pipeline"):
            fallback = _pipeline(trained_cnn, tiny_color_split, num_workers=2).run_scheme(scheme)
        _runs_equal(sequential, fallback)
        if (os.cpu_count() or 1) <= 1:
            assert any("single CPU" in message for message in caplog.messages)

    def test_forced_worker_processes_match_sequential(
        self, trained_cnn, tiny_color_split, scheme, monkeypatch
    ):
        """Real worker processes (forced past the 1-CPU guard) reproduce the
        sequential statistics exactly — the merge is deterministic.  Ten
        images at batch 4 shard as (0, 8) and (8, 10): the ragged last batch
        runs in a worker and must still match bit for bit."""
        monkeypatch.setenv("REPRO_FORCE_SHARDING", "1")
        for max_test_images in (8, 10):
            sequential = _pipeline(
                trained_cnn, tiny_color_split, max_test_images=max_test_images
            ).run_scheme(scheme)
            sharded = _pipeline(
                trained_cnn, tiny_color_split, max_test_images=max_test_images, num_workers=2
            ).run_scheme(scheme)
            assert sharded.num_images == max_test_images
            _runs_equal(sequential, sharded)

    def test_sharded_with_early_exit(self, trained_cnn, tiny_color_split, scheme, monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_SHARDING", "1")
        dense = _pipeline(trained_cnn, tiny_color_split, time_steps=40).run_scheme(scheme)
        fast = _pipeline(
            trained_cnn,
            tiny_color_split,
            time_steps=40,
            num_workers=2,
            early_exit_patience=12,
        ).run_scheme(scheme)
        assert fast.accuracy == pytest.approx(dense.accuracy, abs=1.0 / dense.num_images)
        assert fast.total_spikes <= dense.total_spikes
        assert fast.cumulative_spikes.shape == dense.cumulative_spikes.shape


class TestStochasticEncoders:
    def test_stochastic_scheme_not_cached_and_not_sharded(
        self, trained_cnn, tiny_color_split, monkeypatch
    ):
        """A Poisson-input scheme must behave exactly as it did before the SNN
        cache and sharding existed: every run_scheme starts from the same
        seeded RNG, and the shard request runs sequentially."""
        from repro.core.hybrid import CodingParams

        monkeypatch.setenv("REPRO_FORCE_SHARDING", "1")
        scheme = HybridCodingScheme(
            input_coding="rate",
            hidden_coding="burst",
            input_params=CodingParams(stochastic_input=True),
            hidden_params=CodingParams(v_th=0.125),
        )
        pipeline = _pipeline(trained_cnn, tiny_color_split)
        first = pipeline.run_scheme(scheme)
        assert pipeline._snn_cache == {}  # stochastic encoders are not cached
        second = pipeline.run_scheme(scheme)
        _runs_equal(first, second)
        sharded = _pipeline(trained_cnn, tiny_color_split, num_workers=2).run_scheme(scheme)
        _runs_equal(first, sharded)


class TestMemoryFootprint:
    def test_outputs_final_preallocated(self, trained_cnn, tiny_color_split, scheme):
        run = _pipeline(trained_cnn, tiny_color_split).run_scheme(scheme)
        assert run.outputs_final.shape == (run.num_images, 3)
        assert run.outputs_final.flags.c_contiguous
        assert run.batch_results == []  # not kept unless requested

    def test_batch_results_kept_on_request(self, trained_cnn, tiny_color_split, scheme):
        run = _pipeline(trained_cnn, tiny_color_split).run_scheme(
            scheme, keep_batch_results=True
        )
        assert len(run.batch_results) == 2  # 8 images / batch_size 4
        stitched = np.concatenate([r.final_outputs for r in run.batch_results])
        assert np.array_equal(stitched, run.outputs_final)

    def test_snn_cache_not_pickled(self, trained_cnn, tiny_color_split, scheme):
        import pickle

        pipeline = _pipeline(trained_cnn, tiny_color_split)
        pipeline.run_scheme(scheme)
        assert pipeline._snn_cache
        clone = pickle.loads(pickle.dumps(pipeline))
        assert clone._snn_cache == {}
