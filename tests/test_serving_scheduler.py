"""Tests for the micro-batching scheduler (repro.serving.scheduler)."""

import sys
import threading
import time

import pytest

from repro.serving.metrics import ServerMetrics, percentile
from repro.serving.scheduler import (
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    BatcherClosedError,
    MicroBatcher,
    QueueFullError,
    resolve_priority,
)


def _echo_handler(payloads, info):
    """Return each payload tagged with the batch size it rode in."""
    return [(payload, info.size) for payload in payloads]


class GatedHandler:
    """Echo handler whose batches block until :meth:`release`: while the
    first batch holds the only worker, later submissions queue up.
    ``batches`` records each executed batch's payloads in execution order."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self._gate = threading.Event()
        self.batches = []

    def __call__(self, payloads, info):
        self.entered.set()
        assert self._gate.wait(timeout=10)
        self.batches.append(list(payloads))
        return list(payloads)

    def release(self) -> None:
        self._gate.set()


def _frozen_clock() -> float:
    return 0.0


class TestCoalescing:
    def test_batches_coalesce_under_load(self):
        # requests submitted while the worker is busy ride together, in
        # batches capped at max_batch_size
        handler = GatedHandler()
        metrics = ServerMetrics()
        batcher = MicroBatcher(handler, max_batch_size=4, metrics=metrics)
        futures = [batcher.submit(0)]
        assert handler.entered.wait(timeout=10)
        futures += [batcher.submit(i) for i in range(1, 20)]
        handler.release()
        results = [f.result(timeout=10) for f in futures]
        batcher.close()
        # every request answered, in submission order
        assert results == list(range(20))
        assert [len(batch) for batch in handler.batches] == [1, 4, 4, 4, 4, 3]
        assert metrics.batch_size_histogram() == {1: 1, 4: 4, 3: 1}
        assert metrics.requests_total == 20
        assert metrics.rejected_total == 0

    def test_full_batch_flushes_without_waiting(self):
        # the three requests are queued before the worker starts: it takes
        # them as one batch of max_batch_size
        with MicroBatcher(_echo_handler, max_batch_size=3, start=False) as batcher:
            futures = [batcher.submit(i) for i in range(3)]
            batcher.start()
            results = [f.result(timeout=10) for f in futures]
            assert [size for _, size in results] == [3, 3, 3]


class TestWorkConserving:
    def test_lone_request_runs_on_a_frozen_clock(self):
        # nothing waits on time: a request beside an idle worker runs at
        # once, even when the clock never advances
        metrics = ServerMetrics()
        with MicroBatcher(
            _echo_handler, max_batch_size=8, clock=_frozen_clock, metrics=metrics
        ) as batcher:
            payload, size = batcher.submit("solo").result(timeout=10)
        assert (payload, size) == ("solo", 1)
        assert metrics.snapshot()["queue_wait_ms"]["p50"] == 0.0

    def test_partial_batch_dispatches_at_once(self):
        # two queued requests, room for eight: the worker takes both as one
        # batch instead of waiting for more company
        batcher = MicroBatcher(
            _echo_handler, max_batch_size=8, clock=_frozen_clock, start=False
        )
        futures = [batcher.submit(i) for i in range(2)]
        batcher.start()
        results = [f.result(timeout=10) for f in futures]
        batcher.close()
        assert results == [(0, 2), (1, 2)]

    def test_queued_requests_ride_together_by_priority(self):
        # the next batch is the max_batch_size most important queued
        # requests, in priority order (ties in submission order)
        handler = GatedHandler()
        batcher = MicroBatcher(handler, max_batch_size=4)
        wedge = batcher.submit("wedge")
        assert handler.entered.wait(timeout=10)
        futures = [
            batcher.submit(payload, priority)
            for payload, priority in [
                ("batch-0", "batch"),
                ("batch-1", "batch"),
                ("live-0", "interactive"),
                ("batch-2", "batch"),
                ("live-1", "interactive"),
                ("live-2", "interactive"),
            ]
        ]
        handler.release()
        for future in [wedge, *futures]:
            future.result(timeout=10)
        batcher.close()
        assert handler.batches == [
            ["wedge"],
            ["live-0", "live-1", "live-2", "batch-0"],
            ["batch-1", "batch-2"],
        ]


class TestAdmissionControl:
    def test_bounded_queue_rejects_when_full(self):
        handler = GatedHandler()
        metrics = ServerMetrics()
        batcher = MicroBatcher(handler, max_batch_size=1, max_queue=3, metrics=metrics)
        first = batcher.submit("in-flight")
        assert handler.entered.wait(timeout=10)  # the worker is now stuck in the handler
        queued = [batcher.submit(i) for i in range(3)]  # fills the bounded queue
        with pytest.raises(QueueFullError):
            batcher.submit("overflow")
        assert metrics.rejected_total == 1
        assert batcher.queue_depth == 3
        handler.release()
        assert first.result(timeout=10) == "in-flight"
        assert [f.result(timeout=10) for f in queued] == [0, 1, 2]
        batcher.close()

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(_echo_handler)
        batcher.close()
        with pytest.raises(BatcherClosedError):
            batcher.submit("late")


class TestGracefulDrain:
    def test_drain_resolves_every_in_flight_future(self):
        # six requests are still queued behind the wedged worker when close
        # begins; close admits nothing new but runs every one of them
        handler = GatedHandler()
        batcher = MicroBatcher(handler, max_batch_size=2)
        futures = [batcher.submit(0)]
        assert handler.entered.wait(timeout=10)
        futures += [batcher.submit(i) for i in range(1, 7)]
        closer = threading.Thread(target=batcher.close)
        closer.start()
        deadline = time.monotonic() + 10
        while not batcher.closed and time.monotonic() < deadline:
            time.sleep(0.001)
        with pytest.raises(BatcherClosedError):
            batcher.submit("late")
        assert batcher.queue_depth == 6
        handler.release()
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert all(f.done() for f in futures)
        assert [f.result(timeout=0) for f in futures] == list(range(7))
        assert [len(batch) for batch in handler.batches] == [1, 2, 2, 2]
        batcher.close()  # idempotent

    def test_handler_error_propagates_to_every_future_of_the_batch(self):
        def failing_handler(payloads, info):
            raise RuntimeError("boom")

        metrics = ServerMetrics()
        with MicroBatcher(failing_handler, max_batch_size=4, metrics=metrics) as batcher:
            futures = [batcher.submit(i) for i in range(2)]
            for future in futures:
                with pytest.raises(RuntimeError, match="boom"):
                    future.result(timeout=10)
        assert metrics.snapshot()["errors_total"] == 2

    def test_wrong_result_count_is_an_error(self):
        with MicroBatcher(lambda payloads, info: [], max_batch_size=1) as batcher:
            with pytest.raises(RuntimeError, match="results"):
                batcher.submit("x").result(timeout=10)


class TestPriorities:
    def test_resolve_priority(self):
        assert resolve_priority(None) == PRIORITY_INTERACTIVE
        assert resolve_priority("interactive") == PRIORITY_INTERACTIVE
        assert resolve_priority("BATCH") == PRIORITY_BATCH
        assert resolve_priority(3) == 3
        for bad in ("urgent", True, [1], {"p": 1}):
            with pytest.raises(ValueError):
                resolve_priority(bad)

    def test_interactive_overtakes_queued_batch_work(self):
        """Under contention, queued interactive requests are served before
        batch requests submitted *earlier* (and ties keep submission order)."""
        handler = GatedHandler()
        batcher = MicroBatcher(handler, max_batch_size=2, max_queue=8)
        wedge = batcher.submit("wedge")  # occupies the single worker
        assert handler.entered.wait(timeout=10)
        lows = [batcher.submit(f"batch-{i}", "batch") for i in range(3)]
        highs = [batcher.submit(f"live-{i}", "interactive") for i in range(3)]
        handler.release()
        for future in [wedge, *lows, *highs]:
            future.result(timeout=10)
        batcher.close()
        order = [payload for batch in handler.batches for payload in batch]
        assert order[0] == "wedge"
        # every interactive request ran before every batch request
        assert order[1:4] == ["live-0", "live-1", "live-2"]
        assert order[4:] == ["batch-0", "batch-1", "batch-2"]

    def test_full_queue_sheds_lowest_priority_for_interactive(self):
        handler = GatedHandler()
        metrics = ServerMetrics()
        batcher = MicroBatcher(handler, max_batch_size=1, max_queue=2, metrics=metrics)
        wedge = batcher.submit("wedge")
        assert handler.entered.wait(timeout=10)
        lows = [batcher.submit(f"batch-{i}", "batch") for i in range(2)]
        # queue full of batch work: an interactive submission sheds the
        # *youngest lowest-priority* request instead of bouncing
        high = batcher.submit("live", "interactive")
        assert metrics.shed_total == 1
        assert metrics.rejected_total == 0
        with pytest.raises(QueueFullError) as excinfo:
            lows[1].result(timeout=10)  # the shed future fails with guidance
        assert excinfo.value.retry_after_s > 0.0
        # a second interactive request sheds the remaining batch request...
        high_2 = batcher.submit("live-2", "interactive")
        assert metrics.shed_total == 2
        with pytest.raises(QueueFullError):
            lows[0].result(timeout=10)
        # ...but a third finds only equal-priority work and is rejected
        with pytest.raises(QueueFullError):
            batcher.submit("live-3", "interactive")
        assert metrics.rejected_total == 1
        handler.release()
        assert wedge.result(timeout=10) == "wedge"
        assert high.result(timeout=10) == "live"
        assert high_2.result(timeout=10) == "live-2"
        batcher.close()

    def test_queue_full_rejection_carries_retry_after(self):
        handler = GatedHandler()
        batcher = MicroBatcher(handler, max_batch_size=2, max_queue=4)
        first = batcher.submit("in-flight")
        assert handler.entered.wait(timeout=10)
        queued = [batcher.submit(i) for i in range(4)]
        with pytest.raises(QueueFullError) as excinfo:
            batcher.submit("overflow")
        # before any batch completed, each batch counts 0.05 s: the 5
        # requests ahead of a would-be new one make 3 batches on 1 worker
        assert excinfo.value.retry_after_s == pytest.approx(0.15)
        assert batcher.estimate_retry_after() == pytest.approx(0.15)
        handler.release()
        first.result(timeout=10)
        for future in queued:
            future.result(timeout=10)
        batcher.close()


class TestWorkerPool:
    def test_workers_drain_concurrently(self):
        """Two workers overlap on a blocking handler: with a single worker the
        second batch could never enter the handler while the first is stuck."""
        barrier = threading.Barrier(2, timeout=10)

        def rendezvous_handler(payloads, info):
            barrier.wait()  # only passable when two batches run at once
            return [(payload, info.replica) for payload in payloads]

        with MicroBatcher(rendezvous_handler, max_batch_size=1, num_workers=2) as batcher:
            futures = [batcher.submit(i) for i in range(2)]
            results = [f.result(timeout=10) for f in futures]
        assert sorted(payload for payload, _ in results) == [0, 1]
        assert sorted(replica for _, replica in results) == [0, 1]

    def test_multi_worker_drain_resolves_every_future(self):
        def slow_handler(payloads, info):
            time.sleep(0.01)
            return [(payload, info.replica) for payload in payloads]

        batcher = MicroBatcher(slow_handler, max_batch_size=2, num_workers=3, max_queue=64)
        futures = [batcher.submit(i) for i in range(17)]
        batcher.close()  # graceful: every admitted future resolves
        assert all(f.done() for f in futures)
        results = [f.result(timeout=0) for f in futures]
        assert sorted(payload for payload, _ in results) == list(range(17))
        assert set(replica for _, replica in results) <= {0, 1, 2}

    def test_no_request_lost_under_thread_contention(self):
        """More workers and client threads than cores, a short switch
        interval: a lost wake-up would leave a future unresolved (the
        workers wait without a timeout), a lost update would answer a
        request twice or in an over-full batch."""
        sizes = []

        def recording_handler(payloads, info):
            sizes.append(len(payloads))
            return list(payloads)

        batcher = MicroBatcher(
            recording_handler, max_batch_size=3, num_workers=4, max_queue=1000
        )
        futures = {}

        def client(offset):
            for i in range(offset, offset + 100):
                futures[i] = batcher.submit(i)
                if i % 7 == 0:
                    time.sleep(0)  # yield, so workers often find the queue empty

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [threading.Thread(target=client, args=(k * 100,)) for k in range(4)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=30)
            results = {i: future.result(timeout=30) for i, future in futures.items()}
        finally:
            sys.setswitchinterval(interval)
            batcher.close()
        assert not any(thread.is_alive() for thread in clients)
        assert results == {i: i for i in range(400)}
        assert sum(sizes) == 400
        assert max(sizes) <= 3

    def test_replica_utilisation_gauge(self):
        def busy_handler(payloads, info):
            time.sleep(0.02)
            return list(payloads)

        batcher = MicroBatcher(busy_handler, max_batch_size=1, num_workers=2)
        futures = [batcher.submit(i) for i in range(4)]
        for future in futures:
            future.result(timeout=10)
        utilisation = batcher.replica_utilisation()
        batcher.close()
        assert len(utilisation) == 2
        assert all(0.0 <= value <= 1.0 for value in utilisation)
        assert sum(utilisation) > 0.0


class TestValidationAndMetrics:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"max_queue": 0},
            {"num_workers": 0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            MicroBatcher(_echo_handler, start=False, **kwargs)

    def test_percentile_helper(self):
        assert percentile([], 50) == 0.0
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 51.0  # nearest rank on 0-based index
        assert percentile(values, 95) == 95.0
        assert percentile([7.0], 95) == 7.0

    def test_snapshot_shape(self):
        metrics = ServerMetrics()
        metrics.record_submit()
        metrics.record_batch(3, latencies_ms=[1.0, 2.0, 3.0])
        snapshot = metrics.snapshot(queue_depth=5)
        assert snapshot["requests_total"] == 1
        assert snapshot["batches_total"] == 1
        assert snapshot["images_total"] == 3
        assert snapshot["queue_depth"] == 5
        assert snapshot["batch_size_histogram"] == {"3": 1}
        assert snapshot["latency_ms"]["count"] == 3
        assert snapshot["latency_ms"]["p50"] == 2.0
