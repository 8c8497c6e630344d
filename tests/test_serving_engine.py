"""Tests for the embeddable serving engine (repro.serving.engine) and the
single-flight contract of InferenceSession (repro.engine.session)."""

import contextlib
import threading
import time

import numpy as np
import pytest

from repro.core.hybrid import HybridCodingScheme
from repro.core.registry import UnknownCodingError
from repro.engine.session import InferenceSession
from repro.serving.engine import ServingConfig, ServingEngine
from repro.serving.limits import RateLimitedError
from repro.snn.network import SimulationConfig

TIME_STEPS = 20


@pytest.fixture()
def engine(trained_mlp, tiny_image_split):
    """A float64 serving engine over the tiny trained MLP."""
    engine = ServingEngine(
        trained_mlp,
        tiny_image_split.train.x,
        ServingConfig(
            max_batch_size=4,
            time_steps=TIME_STEPS,
            dtype="float64",
            seed=0,
        ),
    )
    yield engine
    engine.close()


def _reference_scores(engine, model, images, notation="phase-burst"):
    """Final float64 scores of ``images`` run as ONE batch through a fresh
    session built on the same shared normalisation."""
    session = InferenceSession.from_model(
        model,
        HybridCodingScheme.from_notation(notation),
        config=SimulationConfig(time_steps=TIME_STEPS, dtype="float64"),
        normalization=engine.normalization,
        seed=0,
    )
    return session.run(images).final_outputs


@contextlib.contextmanager
def _replica_busy(engine, image):
    """Keep the engine's only replica busy for the body of the ``with``.

    Holding the replica session's run lock, one wedge request is submitted
    and taken by the worker, which then blocks on the lock; requests
    submitted in the body queue behind it and, on exit, ride together in
    batches of up to ``max_batch_size``.  (A batch of one would not do: a
    one-row float64 GEMM may sum in another order than the same row inside
    a larger batch.)"""
    session = engine._scheme_server("phase-burst").sessions[0]
    with session._run_lock:
        wedge = engine.classify(image)
        deadline = time.monotonic() + 10
        while engine.queue_depth() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert engine.queue_depth() == 0
        yield
    wedge.result(timeout=60)


class TestBitIdentity:
    def test_concurrent_singles_match_batch_run_bitwise(
        self, engine, trained_mlp, tiny_image_split
    ):
        """The acceptance check: N concurrent single-image requests answer
        bit-identically (float64) to the equivalent pipeline batch run, and
        micro-batching actually coalesced: the 6 requests queued behind a
        busy replica ride in batches of 4 and 2."""
        images = tiny_image_split.test.x[:6]
        reference = _reference_scores(engine, trained_mlp, images)

        with _replica_busy(engine, images[0]):
            futures = [engine.classify(images[i]) for i in range(len(images))]
        results = [future.result(timeout=60) for future in futures]

        served = np.array([result.scores for result in results], dtype=np.float64)
        assert served.dtype == reference.dtype
        assert np.array_equal(served, reference)
        assert [result.batch_size for result in results] == [4, 4, 4, 4, 2, 2]
        # with early exit off, no request reports a freeze step
        assert all(result.frozen_at is None for result in results)
        assert all(result.time_steps == TIME_STEPS for result in results)
        assert all(result.scheme == "phase-burst" for result in results)
        predictions = np.array([result.prediction for result in results])
        assert np.array_equal(predictions, reference.argmax(axis=1))

    def test_threaded_clients_match_batch_run_bitwise(
        self, engine, trained_mlp, tiny_image_split
    ):
        """Same equivalence with real concurrent client threads, whose
        requests queue behind a busy replica and ride in two batches of 4."""
        images = tiny_image_split.test.x[:8]
        reference = _reference_scores(engine, trained_mlp, images)
        results = [None] * len(images)
        barrier = threading.Barrier(len(images))

        def client(index):
            barrier.wait(timeout=30)
            results[index] = engine.classify_sync(images[index], timeout=60)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(len(images))]
        with _replica_busy(engine, images[0]):
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            while engine.queue_depth() < len(images) and time.monotonic() < deadline:
                time.sleep(0.005)
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        served = np.array([result.scores for result in results], dtype=np.float64)
        assert np.array_equal(served, reference)
        assert sorted(result.batch_size for result in results) == [4] * 8


class TestEngineBehaviour:
    def test_timing_and_stats_are_populated(self, engine, tiny_image_split):
        result = engine.classify_sync(tiny_image_split.test.x[0])
        assert result.batch_ms >= 0.0
        assert result.queue_ms >= 0.0
        assert result.total_ms == result.queue_ms + result.batch_ms
        stats = engine.stats()
        assert stats["requests_total"] >= 1
        assert stats["sessions"]["phase-burst"]["images_served"] >= 1
        assert stats["config"]["max_batch_size"] == 4
        assert "p95" in stats["latency_ms"]

    def test_flat_image_payload_accepted(self, engine, tiny_image_split):
        image = tiny_image_split.test.x[0]
        nested = engine.classify_sync(image)
        flat = engine.classify_sync(image.ravel().tolist())
        assert flat.scores == nested.scores

    def test_malformed_image_rejected(self, engine):
        with pytest.raises(ValueError, match="does not match"):
            engine.classify(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="not numeric"):
            engine.classify([["a", "b"]])

    def test_unknown_scheme_has_did_you_mean(self, engine, tiny_image_split):
        with pytest.raises(UnknownCodingError, match="did you mean"):
            engine.classify(tiny_image_split.test.x[0], scheme="phse-burst")

    def test_scheme_listing_matches_registry(self, engine):
        from repro.core.registry import scheme_metadata

        listing = engine.schemes()
        assert listing["codings"] == scheme_metadata()
        assert "phase" in listing["input_codings"]

    def test_lru_eviction_drains_oldest_session(self, trained_mlp, tiny_image_split):
        engine = ServingEngine(
            trained_mlp,
            tiny_image_split.train.x,
            ServingConfig(
                max_batch_size=2,
                time_steps=8,
                session_cache_size=2,
                seed=0,
            ),
        )
        try:
            image = tiny_image_split.test.x[0]
            engine.classify_sync(image, scheme="phase-burst")
            engine.classify_sync(image, scheme="real-rate")
            assert engine.loaded_schemes() == ["phase-burst", "real-rate"]
            # touching phase-burst refreshes it; a third scheme evicts real-rate
            engine.classify_sync(image, scheme="phase-burst")
            engine.classify_sync(image, scheme="real-burst")
            assert engine.loaded_schemes() == ["phase-burst", "real-burst"]
            # the evicted scheme transparently rebuilds on demand
            result = engine.classify_sync(image, scheme="real-rate")
            assert result.scheme == "real-rate"
        finally:
            engine.close()

    def test_early_exit_reports_frozen_step(self, trained_mlp, tiny_image_split):
        engine = ServingEngine(
            trained_mlp,
            tiny_image_split.train.x,
            ServingConfig(
                max_batch_size=2,
                time_steps=40,
                early_exit_patience=5,
                seed=0,
            ),
        )
        try:
            result = engine.classify_sync(tiny_image_split.test.x[0])
            assert result.frozen_at is None or 1 <= result.frozen_at <= 40
        finally:
            engine.close()

    def test_requires_calibration_or_normalization(self, trained_mlp):
        with pytest.raises(ValueError, match="calibration_x"):
            ServingEngine(trained_mlp)

    def test_classify_after_close_raises(self, trained_mlp, tiny_image_split):
        engine = ServingEngine(
            trained_mlp,
            tiny_image_split.train.x,
            ServingConfig(time_steps=8, seed=0),
        )
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.classify(tiny_image_split.test.x[0])


class TestReplicaPool:
    def test_pool_replicas_answer_bit_identically(self, trained_mlp, tiny_image_split):
        """Every replica of a pool produces the exact float64 scores of a
        standalone session for the same batch, and the float64 weight
        masters are genuinely shared (aliased, not copied)."""
        scheme = HybridCodingScheme.from_notation("phase-burst")
        config = SimulationConfig(time_steps=TIME_STEPS, dtype="float64")
        pool = InferenceSession.replica_pool(
            trained_mlp,
            scheme,
            count=3,
            config=config,
            calibration_x=tiny_image_split.train.x[:64],
            seed=0,
        )
        solo = InferenceSession.from_model(
            trained_mlp,
            scheme,
            config=config,
            calibration_x=tiny_image_split.train.x[:64],
            seed=0,
        )
        batch = tiny_image_split.test.x[:5]
        reference = solo.run(batch).final_outputs
        for session in pool:
            assert np.array_equal(session.run(batch).final_outputs, reference)
        assert [session.replica_index for session in pool] == [0, 1, 2]
        # weight masters are aliased across the pool
        for session in pool[1:]:
            for primary_layer, layer in zip(pool[0].network.layers, session.network.layers):
                if getattr(layer, "weight", None) is not None:
                    assert layer.weight is primary_layer.weight

    def test_replica_pool_requires_normalization_source(self, trained_mlp):
        with pytest.raises(ValueError, match="normalization or calibration_x"):
            InferenceSession.replica_pool(
                trained_mlp,
                HybridCodingScheme.from_notation("phase-burst"),
                count=2,
            )
        with pytest.raises(ValueError, match="count"):
            InferenceSession.replica_pool(
                trained_mlp,
                HybridCodingScheme.from_notation("phase-burst"),
                count=0,
                calibration_x=np.zeros((1, 1, 12, 12)),
            )

    def test_replicated_engine_matches_single_session_bitwise(
        self, trained_mlp, tiny_image_split
    ):
        """The tentpole acceptance check: a replica-pooled engine serves the
        exact float64 answers of a single fresh session, whichever replica a
        request lands on (single-image batches keep the coalescing — and
        hence the summation order — identical on both sides)."""
        engine = ServingEngine(
            trained_mlp,
            tiny_image_split.train.x,
            ServingConfig(
                max_batch_size=1,
                num_replicas=2,
                time_steps=TIME_STEPS,
                dtype="float64",
                seed=0,
            ),
        )
        try:
            images = tiny_image_split.test.x[:8]
            session = InferenceSession.from_model(
                trained_mlp,
                HybridCodingScheme.from_notation("phase-burst"),
                config=SimulationConfig(time_steps=TIME_STEPS, dtype="float64"),
                normalization=engine.normalization,
                seed=0,
            )
            reference = np.stack(
                [session.run(image[None]).final_outputs[0] for image in images]
            )
            futures = [engine.classify(image) for image in images]
            results = [future.result(timeout=60) for future in futures]
            served = np.array([result.scores for result in results], dtype=np.float64)
            assert np.array_equal(served, reference)
            stats = engine.stats()["sessions"]["phase-burst"]
            assert stats["num_replicas"] == 2
            assert len(stats["replica_utilisation"]) == 2
            assert sum(stats["batches_per_replica"]) == len(images)
            assert {result.replica for result in results} <= {0, 1}
        finally:
            engine.close()

    def test_multi_replica_drain_resolves_every_future(
        self, trained_mlp, tiny_image_split
    ):
        engine = ServingEngine(
            trained_mlp,
            tiny_image_split.train.x,
            ServingConfig(
                max_batch_size=2,
                num_replicas=3,
                time_steps=8,
                seed=0,
            ),
        )
        futures = [
            engine.classify(tiny_image_split.test.x[i % 12]) for i in range(13)
        ]
        engine.close()  # graceful drain across all three replicas
        assert all(future.done() for future in futures)
        predictions = [future.result(timeout=0).prediction for future in futures]
        assert len(predictions) == 13


class TestEngineAdmissionControl:
    class ManualClock:
        def __init__(self):
            self.now = 0.0

        def __call__(self):
            return self.now

    @pytest.fixture()
    def limited_engine(self, trained_mlp, tiny_image_split):
        """Rate-limited engine on a manual clock: the clock only feeds the
        limiter and the timing stamps, never batch dispatch."""
        clock = self.ManualClock()
        engine = ServingEngine(
            trained_mlp,
            tiny_image_split.train.x,
            ServingConfig(
                max_batch_size=1,
                time_steps=8,
                max_rps=1.0,
                client_quota=3,
                quota_window_s=60.0,
                seed=0,
            ),
            clock=clock,
        )
        yield engine, clock
        engine.close()

    def test_rate_limit_bounces_and_recovers(self, limited_engine, tiny_image_split):
        engine, clock = limited_engine
        image = tiny_image_split.test.x[0]
        engine.classify_sync(image, client_id="alice")
        with pytest.raises(RateLimitedError) as excinfo:
            engine.classify(image, client_id="alice")
        assert excinfo.value.retry_after_s == pytest.approx(1.0)
        engine.classify_sync(image, client_id="bob")  # independent client
        clock.now += 1.0  # refill alice's bucket
        engine.classify_sync(image, client_id="alice")
        stats = engine.stats()
        assert stats["rate_limited_total"] == 1
        assert stats["rate_limits"]["rate_limited_total"] == 1
        assert stats["rate_limits"]["clients_tracked"] == 2

    def test_quota_exhaustion_names_the_window(self, limited_engine, tiny_image_split):
        engine, clock = limited_engine
        image = tiny_image_split.test.x[0]
        for _ in range(3):
            engine.classify_sync(image, client_id="carol")
            clock.now += 2.0  # stay under the rate limit
        with pytest.raises(RateLimitedError, match="quota"):
            engine.classify(image, client_id="carol")

    def test_priority_is_validated_before_submission(
        self, limited_engine, tiny_image_split
    ):
        engine, clock = limited_engine
        image = tiny_image_split.test.x[0]
        result = engine.classify_sync(image, priority="batch", client_id="dave")
        assert result.prediction >= 0
        clock.now += 10.0
        with pytest.raises(ValueError, match="priority"):
            engine.classify(image, priority="urgent", client_id="dave")


class TestSessionSingleFlight:
    def test_concurrent_session_runs_never_corrupt_plan_buffers(
        self, trained_mlp, tiny_image_split
    ):
        """Satellite regression test: `serve()` calls racing on one session
        must serialise on the internal lock — every thread gets the exact
        result a sequential run produces, for its own batch."""
        scheme = HybridCodingScheme.from_notation("phase-burst")
        session = InferenceSession.from_model(
            trained_mlp,
            scheme,
            config=SimulationConfig(time_steps=15, dtype="float64"),
            calibration_x=tiny_image_split.train.x[:64],
            seed=0,
        )
        batches = [tiny_image_split.test.x[i : i + 3] for i in range(0, 12, 3)]
        expected = [session.run(batch).final_outputs.copy() for batch in batches]

        outputs = [None] * len(batches)
        errors = []
        barrier = threading.Barrier(len(batches))

        def worker(index):
            try:
                barrier.wait(timeout=30)
                for _ in range(3):  # repeated runs raise the interleaving odds
                    result = session.run(batches[index])
                outputs[index] = result.final_outputs.copy()
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(batches))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        for got, want in zip(outputs, expected):
            assert np.array_equal(got, want)
        assert session.batches_served == len(batches) * 4
