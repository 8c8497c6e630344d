"""The embeddable serving engine: replica session pools behind micro-batchers.

:class:`ServingEngine` is the in-process core of ``repro serve`` — tests,
examples and the HTTP front end all drive the same object:

* per coding scheme, a **pool of replica**
  :class:`~repro.engine.session.InferenceSession`\\ s
  (``ServingConfig.num_replicas``; built lazily through the scheme registry,
  weight normalisation computed once and shared across schemes *and*
  replicas, float64 weight masters aliased across the pool) behind one
  priority-aware :class:`~repro.serving.scheduler.MicroBatcher` whose worker
  pool runs one thread per replica.  A free replica takes whatever is
  queued, up to ``max_batch_size`` requests in priority order, and runs it
  at once; requests arriving while every replica is busy ride together in
  the next batch.  On a multi-core machine N replicas simulate N
  micro-batches concurrently;
* per-client admission control
  (:class:`~repro.serving.limits.ClientRateLimiter`): token-bucket rate
  limits (``max_rps`` / ``rate_burst``) and windowed quotas
  (``client_quota``), surfaced as
  :class:`~repro.serving.limits.RateLimitedError` with retry guidance;
* the scheme cache is **LRU-bounded** (``ServingConfig.session_cache_size``):
  the least recently used scheme's batcher is drained and its sessions
  dropped when a new scheme would exceed the bound;
* :meth:`ServingEngine.classify` is non-blocking and returns a future of a
  :class:`~repro.serving.protocol.ClassifyResult`;
  :meth:`~ServingEngine.classify_sync` waits for it.

Every replica is converted from the same model under the same shared
normalisation and runs the same configuration, and each is guarded by the
batcher worker owning it plus the session's own single-flight lock — so
float64 responses are bit-identical to running the same batch through the
pipeline / a fresh session, *whichever replica serves them*.  Which requests
share a batch depends on arrival timing, and a batch of one can differ in
the last bits from the same image inside a larger batch (BLAS may sum a
one-row product in another order).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.ann.model import Sequential
from repro.conversion.converter import ConversionConfig
from repro.conversion.normalization import NormalizationResult, normalize_weights
from repro.core.hybrid import HybridCodingScheme
from repro.engine.session import InferenceSession
from repro.serving.limits import ClientRateLimiter
from repro.serving.metrics import ServerMetrics
from repro.serving.protocol import ClassifyResult, parse_image, scheme_listing
from repro.serving.scheduler import BatcherClosedError, BatchInfo, MicroBatcher
from repro.snn.network import SimulationConfig
from repro.utils.config import FrozenConfig, validate_positive
from repro.utils.logging import get_logger
from repro.utils.threads import blas_thread_info

logger = get_logger("serving.engine")


@dataclass(frozen=True)
class ServingConfig(FrozenConfig):
    """Knobs of one serving engine.

    Attributes
    ----------
    max_batch_size:
        Most queued requests a free replica takes as one micro-batch.
    max_queue:
        Admission-control bound per scheme queue; submissions beyond it are
        rejected — or shed lowest-priority-first — with retry guidance
        (HTTP 429 + ``Retry-After``).
    num_replicas:
        Inference sessions (and batcher workers) per scheme.  Replicas share
        the float64 weight masters and the weight normalisation but own
        their plan/scratch buffers, so N replicas serve N micro-batches
        concurrently on a multi-core machine.
    max_rps:
        Per-client token-bucket rate limit in requests/second
        (``None`` = unlimited).
    rate_burst:
        Token-bucket capacity — requests a quiet client may fire at once
        (``None`` = ``ceil(max_rps)``).
    client_quota:
        Admitted requests per client per ``quota_window_s`` window
        (``None`` = unlimited).
    quota_window_s:
        Length of the fixed quota window, seconds.
    time_steps:
        Simulation horizon every request is answered with.
    dtype:
        Simulation precision (``None`` = project policy, float32; float64
        answers are bit-identical to the batch pipeline).
    backend:
        Compute backend for every served simulation (a registered
        :mod:`repro.backends` name; ``None`` = the backend policy default).
    early_exit_patience:
        Optional converged-image early exit (see
        :class:`~repro.snn.network.SimulationConfig`).
    session_cache_size:
        Number of per-scheme session pools kept alive (LRU eviction beyond
        it).
    calibration_images:
        Training images used for the shared weight normalisation.
    request_timeout_s:
        How long synchronous waits (``classify_sync``, HTTP) block before
        giving up on a future.
    seed:
        Seed forwarded to conversion and simulation.
    """

    max_batch_size: int = 8
    max_queue: int = 64
    num_replicas: int = 1
    max_rps: Optional[float] = None
    rate_burst: Optional[float] = None
    client_quota: Optional[int] = None
    quota_window_s: float = 60.0
    time_steps: int = 100
    dtype: Optional[str] = None
    backend: Optional[str] = None
    early_exit_patience: Optional[int] = None
    session_cache_size: int = 4
    calibration_images: int = 128
    request_timeout_s: float = 60.0
    seed: int = 0
    conversion: ConversionConfig = field(default_factory=ConversionConfig)

    def __post_init__(self) -> None:
        validate_positive("max_batch_size", self.max_batch_size)
        validate_positive("max_queue", self.max_queue)
        validate_positive("num_replicas", self.num_replicas)
        validate_positive("time_steps", self.time_steps)
        validate_positive("session_cache_size", self.session_cache_size)
        validate_positive("calibration_images", self.calibration_images)
        validate_positive("quota_window_s", self.quota_window_s)
        if self.max_rps is not None:
            validate_positive("max_rps", self.max_rps)
        if self.rate_burst is not None:
            validate_positive("rate_burst", self.rate_burst)
        if self.client_quota is not None:
            validate_positive("client_quota", self.client_quota)
        if self.early_exit_patience is not None:
            validate_positive("early_exit_patience", self.early_exit_patience)
        if self.backend is not None:
            from repro.backends import validate_backend_name

            validate_backend_name(self.backend)


class _SchemeServer:
    """One scheme's replica session pool plus the batcher feeding it."""

    def __init__(
        self, engine: "ServingEngine", scheme: HybridCodingScheme
    ) -> None:
        config = engine.config
        self.scheme = scheme
        self.sessions = InferenceSession.replica_pool(
            engine.model,
            scheme,
            count=config.num_replicas,
            config=SimulationConfig(
                time_steps=config.time_steps,
                record_outputs_every=config.time_steps,  # final scores only
                seed=config.seed,
                dtype=config.dtype,
                backend=config.backend,
                early_exit_patience=config.early_exit_patience,
            ),
            conversion=config.conversion,
            normalization=engine.normalization,
            seed=config.seed,
        )
        self.batcher = MicroBatcher(
            self._run_batch,
            max_batch_size=config.max_batch_size,
            max_queue=config.max_queue,
            num_workers=config.num_replicas,
            metrics=engine.metrics,
            clock=engine.clock,
            name=scheme.notation,
        )

    def _run_batch(
        self, payloads: List[np.ndarray], info: BatchInfo
    ) -> List[ClassifyResult]:
        """Simulate one coalesced batch on the worker's replica and split it
        into per-request results."""
        session = self.sessions[info.replica]
        started = time.monotonic()
        result = session.run(np.stack(payloads))
        batch_ms = (time.monotonic() - started) * 1000.0
        scores = result.final_outputs
        predictions = scores.argmax(axis=1)
        frozen = result.frozen_at
        return [
            ClassifyResult(
                prediction=int(predictions[i]),
                scores=scores[i].tolist(),
                scheme=self.scheme.notation,
                frozen_at=None
                if frozen is None or frozen[i] < 0
                else int(frozen[i]),
                batch_size=info.size,
                queue_ms=info.queue_ms[i],
                batch_ms=batch_ms,
                time_steps=result.time_steps,
                replica=info.replica,
            )
            for i in range(len(payloads))
        ]

    def stats(self) -> Dict[str, object]:
        """Per-scheme gauges for ``/metrics``."""
        return {
            "num_replicas": len(self.sessions),
            "batches_served": sum(s.batches_served for s in self.sessions),
            "images_served": sum(s.images_served for s in self.sessions),
            "batches_per_replica": [s.batches_served for s in self.sessions],
            "replica_utilisation": [
                round(u, 4) for u in self.batcher.replica_utilisation()
            ],
            "queue_depth": self.batcher.queue_depth,
        }

    def close(self) -> None:
        self.batcher.close()


class ServingEngine:
    """Serve classify requests for one model across registered schemes.

    Each scheme's requests queue in one batcher; a replica that is free
    takes the queued requests (up to ``max_batch_size``, priority first) as
    one batch at once, so batches only grow while every replica is busy.

    Parameters
    ----------
    model:
        The trained :class:`~repro.ann.model.Sequential` ANN to convert.
    calibration_x:
        Training images for the shared data-based weight normalisation
        (every scheme sees identical weights, as in the paper).
    config:
        Serving knobs (see :class:`ServingConfig`).
    normalization:
        Optional precomputed normalisation (skips ``calibration_x``).
    clock:
        Monotonic time source shared by the batchers and the rate limiter
        (injectable so limiter refill and quota windows are tested with a
        fake clock).
    """

    def __init__(
        self,
        model: Sequential,
        calibration_x: Optional[np.ndarray] = None,
        config: Optional[ServingConfig] = None,
        *,
        normalization: Optional[NormalizationResult] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if calibration_x is None and normalization is None:
            raise ValueError("provide calibration_x or a precomputed normalization")
        self.model = model
        self.config = config or ServingConfig()
        self.metrics = ServerMetrics()
        self.clock = clock
        self.limiter = ClientRateLimiter(
            self.config.max_rps,
            burst=self.config.rate_burst,
            quota=self.config.client_quota,
            quota_window_s=self.config.quota_window_s,
            clock=clock,
        )
        self._calibration_x = calibration_x
        self._normalization = normalization
        self._servers: "OrderedDict[str, _SchemeServer]" = OrderedDict()
        self._lock = threading.RLock()
        self._closed = False
        self.input_shape = tuple(model.input_shape)

    # -- shared conversion state ------------------------------------------
    @property
    def normalization(self) -> NormalizationResult:
        """Weight normalisation shared by every scheme (computed once)."""
        with self._lock:
            if self._normalization is None:
                conversion = self.config.conversion
                calibration = self._calibration_x[: self.config.calibration_images]
                self._normalization = normalize_weights(
                    self.model,
                    calibration_x=calibration,
                    percentile=conversion.percentile,
                    method=conversion.normalization,
                )
            return self._normalization

    # -- scheme servers (lazy build, LRU-bounded) --------------------------
    def _resolve_scheme(self, scheme: object) -> HybridCodingScheme:
        if isinstance(scheme, HybridCodingScheme):
            return scheme
        return HybridCodingScheme.from_notation(str(scheme))

    def _scheme_server(self, scheme: object) -> _SchemeServer:
        resolved = self._resolve_scheme(scheme)
        key = resolved.notation
        evicted: Optional[_SchemeServer] = None
        with self._lock:
            if self._closed:
                raise RuntimeError("serving engine is closed")
            server = self._servers.get(key)
            if server is not None:
                self._servers.move_to_end(key)
                return server
            self.normalization  # noqa: B018 - force the one-time computation
            logger.info(
                "building %d session replica(s) for scheme %s",
                self.config.num_replicas, key,
            )
            server = _SchemeServer(self, resolved)
            self._servers[key] = server
            if len(self._servers) > self.config.session_cache_size:
                old_key, evicted = self._servers.popitem(last=False)
                logger.info("evicting LRU scheme session pool %s", old_key)
        if evicted is not None:
            # drain outside the lock: eviction must not block new submissions
            evicted.close()
        return server

    def warm(self, scheme: object) -> None:
        """Pre-build the session pool for ``scheme`` (conversion + plans)."""
        self._scheme_server(scheme)

    def loaded_schemes(self) -> List[str]:
        """Notations with a live session pool, most recently used last."""
        with self._lock:
            return list(self._servers)

    # -- request path ------------------------------------------------------
    def classify(
        self,
        image: object,
        scheme: object = "phase-burst",
        *,
        priority: object = None,
        client_id: Optional[str] = None,
    ) -> "Future[ClassifyResult]":
        """Submit one image; returns a future of its :class:`ClassifyResult`.

        ``priority`` is ``"interactive"`` (default), ``"batch"``, or an
        integer (lower serves first); ``client_id`` keys the per-client rate
        limits and quotas (``None`` shares the anonymous identity).

        Raises :class:`~repro.serving.limits.RateLimitedError` when the
        client is over its rate limit or quota,
        :class:`~repro.core.registry.UnknownCodingError` for an unregistered
        scheme, :class:`ValueError` for a malformed image or priority and
        :class:`~repro.serving.scheduler.QueueFullError` when admission
        control rejects the request — the two 429-mapped errors both carry
        ``retry_after_s``.
        """
        try:
            self.limiter.admit(client_id)
        except Exception:
            self.metrics.record_rate_limited()
            raise
        payload = parse_image(image, self.input_shape)
        # an LRU eviction can close the batcher between lookup and submit
        # (eviction drains outside the engine lock); the evicted entry is
        # already out of the cache, so retrying rebuilds the session pool
        for _ in range(3):
            try:
                return self._scheme_server(scheme).batcher.submit(payload, priority)
            except BatcherClosedError:
                continue
        return self._scheme_server(scheme).batcher.submit(payload, priority)

    def classify_sync(
        self,
        image: object,
        scheme: object = "phase-burst",
        timeout: Optional[float] = None,
        *,
        priority: object = None,
        client_id: Optional[str] = None,
    ) -> ClassifyResult:
        """Blocking variant of :meth:`classify`."""
        future = self.classify(image, scheme, priority=priority, client_id=client_id)
        return future.result(
            timeout if timeout is not None else self.config.request_timeout_s
        )

    # -- introspection -----------------------------------------------------
    def queue_depth(self) -> int:
        """Requests currently queued across every scheme batcher."""
        with self._lock:
            return sum(server.batcher.queue_depth for server in self._servers.values())

    def stats(self) -> Dict[str, object]:
        """Metrics snapshot plus per-pool serving gauges (``/metrics``)."""
        with self._lock:
            sessions = {
                key: server.stats() for key, server in self._servers.items()
            }
        snapshot = self.metrics.snapshot(queue_depth=self.queue_depth())
        snapshot["sessions"] = sessions
        snapshot["rate_limits"] = self.limiter.snapshot()
        snapshot["runtime"] = blas_thread_info()
        snapshot["config"] = {
            "max_batch_size": self.config.max_batch_size,
            "max_queue": self.config.max_queue,
            "num_replicas": self.config.num_replicas,
            "time_steps": self.config.time_steps,
            "session_cache_size": self.config.session_cache_size,
        }
        return snapshot

    def schemes(self) -> Dict[str, object]:
        """Registry listing served at ``/v1/schemes`` (shared with the CLI)."""
        return scheme_listing()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Graceful drain: every batcher flushes its queue across all
        replicas, and every admitted future resolves."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            servers = list(self._servers.values())
        for server in servers:
            server.close()
        logger.info(
            "serving engine drained (%d requests served)", self.metrics.requests_total
        )

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
