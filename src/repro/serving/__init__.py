"""Concurrent batching inference serving.

The serving subsystem turns the layered engine's *prepare once, serve many
batches* seam (:class:`~repro.engine.session.InferenceSession`) into an
actual server: many concurrent clients share one prepared network per coding
scheme, with their individual requests coalesced into micro-batches.

* :mod:`repro.serving.scheduler` — the request queue + micro-batching
  scheduler (:class:`MicroBatcher`): a worker pool (one thread per session
  replica) where a free worker takes whatever is queued, up to
  ``max_batch_size`` requests in priority order, and runs it at once, so
  requests coalesce only while every worker is busy; bounded-queue
  admission control with lowest-priority-first shedding and computed
  retry-after estimates, graceful drain;
* :mod:`repro.serving.limits` — per-client token-bucket rate limits and
  windowed quotas (:class:`ClientRateLimiter`), LRU-bounded and fake-clock
  testable;
* :mod:`repro.serving.engine` — the embeddable :class:`ServingEngine`:
  per-scheme **replica session pools** built lazily through the scheme
  registry behind an LRU-bounded cache, shared weight normalisation and
  shared float64 weight masters, per-request futures;
* :mod:`repro.serving.http` — the stdlib-only JSON front end
  (:class:`ServingHTTPServer`): ``/v1/classify``, ``/v1/schemes``,
  ``/healthz``, ``/metrics``;
* :mod:`repro.serving.protocol` / :mod:`repro.serving.metrics` — wire types
  and thread-safe serving statistics.

``repro serve`` (the CLI subcommand) wires a trained workload into these
pieces; tests and examples drive :class:`ServingEngine` in-process without
sockets.
"""

from repro.serving.engine import ServingConfig, ServingEngine
from repro.serving.http import ServingHTTPServer
from repro.serving.limits import (
    ANONYMOUS_CLIENT,
    ClientRateLimiter,
    RateLimitedError,
    TokenBucket,
)
from repro.serving.metrics import ServerMetrics
from repro.serving.protocol import ClassifyResult, parse_image, scheme_listing
from repro.serving.scheduler import (
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    BatcherClosedError,
    BatchInfo,
    MicroBatcher,
    QueueFullError,
    resolve_priority,
)

__all__ = [
    "ServingConfig",
    "ServingEngine",
    "ServingHTTPServer",
    "ServerMetrics",
    "ClassifyResult",
    "parse_image",
    "scheme_listing",
    "MicroBatcher",
    "BatchInfo",
    "QueueFullError",
    "BatcherClosedError",
    "PRIORITY_INTERACTIVE",
    "PRIORITY_BATCH",
    "resolve_priority",
    "ClientRateLimiter",
    "TokenBucket",
    "RateLimitedError",
    "ANONYMOUS_CLIENT",
]
