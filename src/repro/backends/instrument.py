"""Backend instrumentation: count and time every kernel-seam crossing.

``InstrumentedBackend`` wraps the
:class:`~repro.backends.numpy_backend.NumpyBackend` and records, per
primitive name, how many times it was called and how long the calls took.
Layers reset on it route every primitive of their ``step`` through the
counting wrappers, which is what the per-layer seam-contract tests
(``tests/test_backends.py``) and the traced benchmark run
(``perfbench/run.py --trace 1``) read.

The wrapper reports the inner backend's ``name``.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

__all__ = ["KernelCallRecorder", "InstrumentedBackend", "PRIMITIVE_NAMES"]

#: every seam primitive the recorder intercepts
PRIMITIVE_NAMES = (
    "empty",
    "zeros",
    "fill",
    "matmul",
    "add_inplace",
    "take_flat",
    "count_nonzero",
    "im2col_plan",
    "direct_conv_plan",
    "avgpool2x2",
    "mean_columns",
    "argmax_columns",
    "if_step",
    "burst_if_step",
)


class KernelCallRecorder:
    """Per-primitive call counts and wall-clock seconds."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}

    def record(self, name: str, elapsed: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed

    def reset(self) -> None:
        self.counts.clear()
        self.seconds.clear()

    def total_calls(self) -> int:
        return sum(self.counts.values())

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"calls": self.counts[name], "seconds": self.seconds[name]}
            for name in sorted(self.counts)
        }


class InstrumentedBackend:
    """Counting/timing proxy around the numpy kernels (tests and profiling)."""

    def __init__(self, inner, recorder: Optional[KernelCallRecorder] = None) -> None:
        self._inner = inner
        self.recorder = recorder if recorder is not None else KernelCallRecorder()
        self.name = inner.name
        for primitive in PRIMITIVE_NAMES:
            target = getattr(inner, primitive, None)
            if target is None:
                continue
            setattr(self, primitive, self._wrap(primitive, target))

    def _wrap(self, primitive: str, target):
        recorder = self.recorder

        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return target(*args, **kwargs)
            finally:
                recorder.record(primitive, time.perf_counter() - start)

        counted.__name__ = primitive
        return counted

    def __getattr__(self, attribute):
        # anything not wrapped above (a primitive added to the numpy backend
        # but not yet to PRIMITIVE_NAMES) resolves uncounted on the real one
        return getattr(self._inner, attribute)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InstrumentedBackend({self._inner!r})"
