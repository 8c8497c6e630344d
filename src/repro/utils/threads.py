"""Single-threaded BLAS scopes for the engine's numerical work.

The engine's GEMMs are many and small (per-step spike rows and conv
patches), so OpenBLAS thread hand-offs cost more than they save, and a
threaded GEMM reassociates its sums, which moves float64 results by ULPs.
:func:`single_blas_thread` pins the OpenBLAS that numpy loaded to one thread
while a scope is active and restores the caller's thread count when the last
nested or concurrent scope exits.  Parallelism stays explicit: row shards,
sharded evaluation workers and serving replicas.

The pin is process-wide (OpenBLAS has one pool), so BLAS work in other
threads also runs single-threaded while any scope is active.  Without a
loaded OpenBLAS exposing its thread controls the scope does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Tuple

# module state because the pool it tracks is process-wide: the number of
# active scopes, and the caller's thread count the last exit restores
_lock = threading.Lock()
_depth = 0
_saved_threads: Optional[int] = None


@functools.lru_cache(maxsize=None)
def openblas_controls() -> Optional[Tuple[Callable[[int], None], Callable[[], int]]]:
    """``(set_num_threads, get_num_threads)`` of the loaded OpenBLAS, or
    ``None``; environment variables cannot retune a pool that already started."""
    try:
        maps = Path(f"/proc/{os.getpid()}/maps").read_text()
    except OSError:
        return None
    paths = {
        line.split()[-1]
        for line in maps.splitlines()
        if "openblas" in line.rsplit("/", 1)[-1].lower()
    }
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", "_", ""):
                setter = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if setter is not None and getter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    return setter, getter
    return None


def blas_thread_info() -> Dict[str, Optional[int]]:
    """``blas_threads``, the caller's OpenBLAS thread count (the count an
    active scope will restore), and ``simulation_blas_threads``, the count
    simulations run on; both ``None`` without controls."""
    controls = openblas_controls()
    if controls is None:
        return {"blas_threads": None, "simulation_blas_threads": None}
    with _lock:
        caller = _saved_threads if _depth else int(controls[1]())
    return {"blas_threads": caller, "simulation_blas_threads": 1}


@contextlib.contextmanager
def single_blas_thread() -> Iterator[None]:
    """Run the body with OpenBLAS on one thread; a context manager, and a
    decorator when applied as ``@single_blas_thread()``."""
    global _depth, _saved_threads
    controls = openblas_controls()
    if controls is None:
        yield
        return
    setter, getter = controls
    with _lock:
        if _depth == 0:
            _saved_threads = int(getter())
            setter(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                setter(_saved_threads)
