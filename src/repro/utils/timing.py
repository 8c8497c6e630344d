"""Wall-clock timing helpers backing the perf benchmark harness.

The perf suite (``benchmarks/perf/``) measures encoder / layer / step
throughput and end-to-end experiment runs, then writes a machine-readable
``BENCH_perf.json`` so successive PRs can prove (or disprove) speedups against
the recorded seed baseline.  These helpers keep that harness free of timing
boilerplate and give every measurement the same shape:

* :class:`Timer` — a ``perf_counter`` context manager;
* :func:`time_callable` — best-of-N repeat timing with warmup (the standard
  protocol for micro-benchmarks, robust to one-off cache effects);
* :func:`machine_info` — the fingerprint stored next to every measurement so
  cross-machine comparisons are detectable;
* :func:`write_bench_json` / :func:`load_bench_json` — the on-disk format.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.utils.threads import blas_thread_info


@dataclass
class Timer:
    """Context manager measuring one wall-clock interval.

    >>> with Timer() as t:
    ...     do_work()
    >>> t.seconds
    """

    seconds: float = 0.0
    _start: float = field(default=0.0, repr=False)

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._start


@dataclass
class TimingResult:
    """Summary of one timed operation."""

    name: str
    best_seconds: float
    mean_seconds: float
    repeats: int
    #: operations per call (e.g. time steps), for throughput reporting
    items_per_call: int = 1

    @property
    def items_per_second(self) -> float:
        if self.best_seconds <= 0.0:
            return float("inf")
        return self.items_per_call / self.best_seconds

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "best_seconds": self.best_seconds,
            "mean_seconds": self.mean_seconds,
            "repeats": self.repeats,
            "items_per_call": self.items_per_call,
            "items_per_second": self.items_per_second,
        }


def time_callable(
    fn: Callable[[], Any],
    name: str = "callable",
    repeats: int = 3,
    warmup: int = 1,
    items_per_call: int = 1,
) -> TimingResult:
    """Time ``fn()`` with ``warmup`` unrecorded calls and ``repeats`` recorded
    ones, reporting best-of and mean wall-clock seconds."""
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    for _ in range(warmup):
        fn()
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return TimingResult(
        name=name,
        best_seconds=min(samples),
        mean_seconds=sum(samples) / len(samples),
        repeats=repeats,
        items_per_call=items_per_call,
    )


def machine_info() -> Dict[str, Any]:
    """Fingerprint of the measuring host, stored alongside every benchmark.

    ``blas_threads`` is the caller's OpenBLAS pool size and
    ``simulation_blas_threads`` the count simulations run on (1, pinned by
    :func:`repro.utils.threads.single_blas_thread`); both are ``None`` when
    no OpenBLAS thread controls are found.
    """
    import numpy as np

    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        **blas_thread_info(),
    }


def write_bench_json(path: Union[str, Path], payload: Dict[str, Any]) -> Path:
    """Write a benchmark payload (with machine fingerprint) as pretty JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {"machine": machine_info(), **payload}
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return path


def load_bench_json(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """Load a benchmark JSON document, or ``None`` if it does not exist."""
    path = Path(path)
    if not path.exists():
        return None
    return json.loads(path.read_text())
