"""``numpy-blocked``: the reference kernels with GEMM tiled over batch shards.

One large GEMM can under-utilise multi-core machines when the BLAS build is
single-threaded (common for pip wheels in containers), and on very large
column matrices a monolithic ``matmul`` churns the cache.  This backend
inherits every kernel from the numpy reference backend and overrides only the
propagation GEMM: the left operand's rows (the batch / unfolded-position
dimension) are split into contiguous shards, each multiplied into the matching
slice of the output buffer — optionally on a thread pool (BLAS releases the
GIL, so shards genuinely overlap on multi-core machines).

Because each output row is the same dot-product reduction regardless of the
shard it lands in, results agree with the reference backend to rounding (and
in practice bit-for-bit on the common BLAS builds); the engine's backend
contract only requires prediction-level agreement, which the parity suite
asserts.

Tuning knobs (environment variables, read once per process):

* ``REPRO_BLOCKED_MIN_ROWS`` — the smallest shard worth splitting off
  (default 64; GEMMs with fewer than two shards run unsplit).
* ``REPRO_BLOCKED_THREADS`` — thread-pool width (default: CPU count capped at
  4; ``1`` tiles sequentially, which is the automatic choice on 1-CPU
  machines).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from repro.backends.numpy_backend import NumpyBackend
from repro.backends.registry import register_backend


def _env_int(name: str, default: int, minimum: int = 1) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return max(minimum, int(raw))
    except ValueError:
        return default


class BlockedNumpyBackend(NumpyBackend):
    """Numpy kernels with the propagation GEMM tiled over row shards."""

    name = "numpy-blocked"
    description = (
        "numpy kernels with the propagation GEMM tiled over batch shards "
        "(threaded on multi-core)"
    )

    def __init__(
        self, min_rows: Optional[int] = None, threads: Optional[int] = None
    ) -> None:
        self.min_rows = (
            _env_int("REPRO_BLOCKED_MIN_ROWS", 64) if min_rows is None else int(min_rows)
        )
        if threads is None:
            threads = _env_int("REPRO_BLOCKED_THREADS", min(os.cpu_count() or 1, 4))
        self.threads = max(1, int(threads))
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    def _executor(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.threads, thread_name_prefix="repro-blocked-gemm"
                )
            return self._pool

    def matmul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        rows = a.shape[0]
        if a.ndim != 2 or rows < 2 * self.min_rows:
            return np.matmul(a, b, out=out)
        shards = min(max(rows // self.min_rows, 1), max(self.threads, 2))
        per_shard = -(-rows // shards)
        bounds = [
            (start, min(start + per_shard, rows))
            for start in range(0, rows, per_shard)
        ]
        if self.threads > 1 and len(bounds) > 1:
            futures = [
                self._executor().submit(np.matmul, a[lo:hi], b, out=out[lo:hi])
                for lo, hi in bounds
            ]
            for future in futures:
                future.result()
        else:
            for lo, hi in bounds:
                np.matmul(a[lo:hi], b, out=out[lo:hi])
        return out


@register_backend(
    "numpy-blocked",
    description=BlockedNumpyBackend.description,
)
def _build_blocked_backend() -> BlockedNumpyBackend:
    return BlockedNumpyBackend()
