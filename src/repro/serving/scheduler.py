"""Request queue and micro-batching scheduler.

A :class:`MicroBatcher` coalesces individual requests from many concurrent
clients into batches handed to a pool of workers:

* **submit** is non-blocking: the request joins a bounded **priority queue**
  (lower priority values run first; ties serve in submission order) and the
  caller gets a :class:`concurrent.futures.Future` that resolves to the
  handler's per-request result.  When the queue is at capacity, admission
  control sheds the **lowest-priority** queued request to make room for a
  more important one (its future fails with :class:`QueueFullError`) and
  rejects the submission outright when it is itself the least important —
  either way the raised/injected :class:`QueueFullError` carries a computed
  ``retry_after_s`` (estimated drain time from the current queue depth and
  the recent batch latency) that the HTTP layer surfaces as *429 Too Many
  Requests* with a ``Retry-After`` header.
* ``num_workers`` **worker threads** (one per session replica) drain the
  queue work-conservingly: a worker that is free takes whatever is queued
  at that moment, up to ``max_batch_size`` requests in priority order, and
  runs it at once.  Requests that arrive while every worker is busy queue
  up and ride together in the next batch, so batches grow with the load,
  and a request never waits beside an idle replica.  The handler learns
  which replica it is running on through :attr:`BatchInfo.replica`.
* **close** performs a graceful drain: no new submissions are admitted,
  every queued request is still executed across all workers, and every
  in-flight future resolves.

Time is read through an injectable ``clock`` (default
:func:`time.monotonic`): it stamps queue waits, batch latencies and the
replica utilisation gauge, and never decides when a batch runs.
"""

from __future__ import annotations

import heapq
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.serving.metrics import ServerMetrics
from repro.utils.logging import get_logger

logger = get_logger("serving.scheduler")

#: priority of latency-sensitive traffic (served first)
PRIORITY_INTERACTIVE = 0
#: priority of throughput traffic (served when no interactive work waits,
#: shed first under queue pressure)
PRIORITY_BATCH = 10

_PRIORITY_NAMES = {
    "interactive": PRIORITY_INTERACTIVE,
    "batch": PRIORITY_BATCH,
}


def resolve_priority(value: object) -> int:
    """Normalise a request priority: a name (``interactive`` / ``batch``),
    an integer (lower runs first), or ``None`` → interactive."""
    if value is None:
        return PRIORITY_INTERACTIVE
    if isinstance(value, str):
        try:
            return _PRIORITY_NAMES[value.lower()]
        except KeyError:
            names = ", ".join(sorted(_PRIORITY_NAMES))
            raise ValueError(
                f"unknown priority {value!r} (expected one of: {names}, or an integer)"
            ) from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"priority must be a name or an integer, got {value!r}")
    return int(value)


class QueueFullError(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` (or injected into a shed
    request's future) when admission control rejects work because the bounded
    queue is at capacity.

    ``retry_after_s`` is the batcher's estimate of when capacity frees up:
    the queued backlog divided by the pool's batch slots, times the recent
    per-batch latency.  The HTTP layer rounds it up into a ``Retry-After``
    header.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class BatcherClosedError(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` after the batcher was closed."""


@dataclass
class BatchInfo:
    """Context handed to the batch handler alongside the payloads."""

    size: int
    #: per-request milliseconds spent waiting in the queue, aligned with the
    #: payload list
    queue_ms: List[float] = field(default_factory=list)
    #: index of the worker (= session replica) executing this batch
    replica: int = 0


#: executes one micro-batch; must return one result per payload, in order
BatchHandler = Callable[[List[Any], BatchInfo], List[Any]]


class _Item:
    __slots__ = ("payload", "future", "enqueued_at", "priority", "seq")

    def __init__(self, payload: Any, enqueued_at: float, priority: int, seq: int) -> None:
        self.payload = payload
        self.future: Future = Future()
        self.enqueued_at = enqueued_at
        self.priority = priority
        self.seq = seq

    def __lt__(self, other: "_Item") -> bool:
        return (self.priority, self.seq) < (other.priority, other.seq)


class MicroBatcher:
    """Coalesce submitted requests into batches executed by a worker pool.

    Parameters
    ----------
    handler:
        ``handler(payloads, info) -> results`` executing one micro-batch;
        must return exactly one result per payload, in batch order.
        ``info.replica`` identifies the executing worker so handlers can
        route to per-replica state (e.g. one inference session per worker).
    max_batch_size:
        Most requests a free worker takes from the queue as one batch.
    max_queue:
        Admission-control bound on queued (not yet collected) requests.
    num_workers:
        Worker threads draining the queue concurrently (= session replicas).
    metrics:
        Optional shared :class:`~repro.serving.metrics.ServerMetrics`.
    clock:
        Monotonic time source in seconds (injectable for fake-clock tests).
    """

    def __init__(
        self,
        handler: BatchHandler,
        *,
        max_batch_size: int = 8,
        max_queue: int = 64,
        num_workers: int = 1,
        metrics: Optional[ServerMetrics] = None,
        clock: Callable[[], float] = time.monotonic,
        name: str = "batcher",
        start: bool = True,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self._handler = handler
        self.max_batch_size = int(max_batch_size)
        self.max_queue = int(max_queue)
        self.num_workers = int(num_workers)
        self.metrics = metrics or ServerMetrics()
        self._clock = clock
        self.name = name
        self._heap: List[_Item] = []
        self._seq = 0
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        #: recent per-batch execution seconds (EWMA feeding retry-after)
        self._recent_batch_s: Optional[float] = None
        self._busy_s = [0.0] * self.num_workers
        self._started_at: Optional[float] = None
        self._threads = [
            threading.Thread(
                target=self._worker,
                args=(index,),
                name=f"repro-serve-{name}-{index}",
                daemon=True,
            )
            for index in range(self.num_workers)
        ]
        if start:
            self.start()

    def start(self) -> "MicroBatcher":
        """Start the worker threads (for batchers created with ``start=False``,
        e.g. tests that want to queue submissions before collection begins)."""
        if self._started_at is None:
            self._started_at = self._clock()
        for thread in self._threads:
            if not thread.is_alive():
                thread.start()
        return self

    # -- client side -------------------------------------------------------
    def submit(self, payload: Any, priority: object = None) -> Future:
        """Enqueue one request; returns the future of its handler result.

        ``priority`` is a name or integer (see :func:`resolve_priority`);
        lower values are served first, and under queue pressure the least
        important queued request is shed to admit a more important one.
        """
        resolved = resolve_priority(priority)
        shed: Optional[_Item] = None
        with self._not_empty:
            if self._closed:
                raise BatcherClosedError(f"batcher {self.name!r} is closed")
            if len(self._heap) >= self.max_queue:
                retry_after = self._estimate_retry_after_locked()
                worst = max(self._heap, key=lambda item: (item.priority, item.seq))
                if worst.priority <= resolved:
                    self.metrics.record_reject()
                    raise QueueFullError(
                        f"batcher {self.name!r} queue is full "
                        f"({self.max_queue} requests waiting)",
                        retry_after_s=retry_after,
                    )
                # backpressure: shed the lowest-priority queued request to
                # make room for this more important one
                self._heap.remove(worst)
                heapq.heapify(self._heap)
                shed = worst
                self.metrics.record_shed()
            item = _Item(payload, self._clock(), resolved, self._seq)
            self._seq += 1
            heapq.heappush(self._heap, item)
            self.metrics.record_submit()
            self._not_empty.notify()
            if shed is not None:
                retry_after = self._estimate_retry_after_locked()
        if shed is not None:
            # resolve the shed future outside the lock: client callbacks on
            # the future must not run under (or deadlock against) the batcher
            shed.future.set_exception(
                QueueFullError(
                    f"batcher {self.name!r} shed this request for higher-priority "
                    f"work (queue of {self.max_queue} is full)",
                    retry_after_s=retry_after,
                )
            )
        return item.future

    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet collected into a batch."""
        with self._lock:
            return len(self._heap)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def estimate_retry_after(self) -> float:
        """Seconds until the current backlog has likely drained (the
        ``Retry-After`` guidance attached to 429 responses)."""
        with self._lock:
            return self._estimate_retry_after_locked()

    def _estimate_retry_after_locked(self) -> float:
        # batches ahead of a would-be new request, spread over the pool
        backlog = len(self._heap) + 1
        batches = -(-backlog // self.max_batch_size)  # ceil
        waves = -(-batches // self.num_workers)
        per_batch = self._recent_batch_s
        if per_batch is None:
            per_batch = 0.05  # nothing measured yet
        return max(0.05, waves * per_batch)

    def replica_utilisation(self) -> List[float]:
        """Per-worker fraction of wall-clock time spent executing batches
        since :meth:`start` (a coarse saturation gauge for ``/metrics``)."""
        with self._lock:
            if self._started_at is None:
                return [0.0] * self.num_workers
            elapsed = self._clock() - self._started_at
            if elapsed <= 0.0:
                return [0.0] * self.num_workers
            return [min(1.0, busy / elapsed) for busy in self._busy_s]

    # -- worker side -------------------------------------------------------
    def _worker(self, replica: int) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._execute(batch, replica)

    def _next_batch(self) -> Optional[List[_Item]]:
        """Block until work is queued; ``None`` when closed and drained.

        The batch is whatever is queued when the worker gets here, up to
        ``max_batch_size`` requests, highest priority first (ties keep
        submission order): interactive requests overtake queued batch work
        without starving it.
        """
        with self._not_empty:
            while not self._heap:
                if self._closed:
                    return None
                self._not_empty.wait()
            count = min(len(self._heap), self.max_batch_size)
            return [heapq.heappop(self._heap) for _ in range(count)]

    def _execute(self, batch: List[_Item], replica: int) -> None:
        started = self._clock()
        queue_ms = [(started - item.enqueued_at) * 1000.0 for item in batch]
        info = BatchInfo(size=len(batch), queue_ms=queue_ms, replica=replica)
        try:
            results = self._handler([item.payload for item in batch], info)
        except BaseException as exc:  # noqa: BLE001 - forwarded to the futures
            logger.warning(
                "batcher %s[%d]: batch of %d failed: %s",
                self.name, replica, len(batch), exc,
            )
            self._record_execution(started, replica)
            self.metrics.record_batch(len(batch), error=True, queue_ms=queue_ms)
            for item in batch:
                item.future.set_exception(exc)
            return
        if len(results) != len(batch):
            exc = RuntimeError(
                f"batch handler returned {len(results)} results for {len(batch)} requests"
            )
            self._record_execution(started, replica)
            self.metrics.record_batch(len(batch), error=True, queue_ms=queue_ms)
            for item in batch:
                item.future.set_exception(exc)
            return
        elapsed_s = self._record_execution(started, replica)
        self.metrics.record_batch(
            len(batch),
            latencies_ms=[q + elapsed_s * 1000.0 for q in queue_ms],
            queue_ms=queue_ms,
        )
        for item, result in zip(batch, results):
            item.future.set_result(result)

    def _record_execution(self, started: float, replica: int) -> float:
        """Fold one batch execution into the EWMA + utilisation gauges."""
        elapsed = max(0.0, self._clock() - started)
        with self._lock:
            self._busy_s[replica] += elapsed
            if self._recent_batch_s is None:
                self._recent_batch_s = elapsed
            else:
                self._recent_batch_s += 0.3 * (elapsed - self._recent_batch_s)
        return elapsed

    # -- lifecycle ---------------------------------------------------------
    def close(self, timeout: Optional[float] = 30.0) -> None:
        """Graceful drain: reject new work, flush the queue, join the pool.

        Every request admitted before the close is still executed and its
        future resolves — callers blocked on results are released, never
        abandoned, whichever replica their batch lands on.  Idempotent.
        """
        with self._not_empty:
            already = self._closed
            self._closed = True
            self._not_empty.notify_all()
        if not already:
            logger.info("batcher %s: draining (%d queued)", self.name, self.queue_depth)
        current = threading.current_thread()
        for thread in self._threads:
            if thread.is_alive() and current is not thread:
                thread.join(timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
