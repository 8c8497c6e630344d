"""Measured-activity dispatch between dense and sparse propagation kernels.

The SNN engine's synaptic work per step is ``W · incoming`` where ``incoming``
holds the spike amplitudes of the previous layer.  Phase/burst hybrid coding
exists precisely to make those amplitude tensors sparse (Table 2's
spiking-density metric is typically ≪ 0.1 spikes/neuron/step), so each layer
carries two interchangeable propagation kernels:

* a **dense** kernel — one big GEMM over the full incoming tensor, and
* a **sparse** kernel — a gather-style kernel that only lifts and multiplies
  the active part of the input (active features for
  :class:`~repro.snn.layers.SpikingDense`, spike-carrying input channels for
  :class:`~repro.snn.layers.SpikingConv2D`).

This module provides the per-layer :class:`SparsityDispatcher` that picks a
kernel every step from the *measured* incoming nonzero fraction, compared
against a per-layer crossover threshold auto-calibrated on the layer's own
geometry the first time it is reset.

Exactness policy
----------------
Floating-point summation is not associative, and BLAS reassociates the
reduction when the operand shapes change, so a gathered GEMM is *not*
guaranteed to be bit-identical to the dense GEMM it replaces (measured on the
bench machine: OpenBLAS drifts in the last ulp for both row- and
column-gathered float64 GEMMs).  The engine's float64 mode is the golden
exact-match reference precision (``benchmarks/perf/seed_reference.json``), so
the dispatcher is **exactness-gated**:

* in float64 the automatic policy only takes shortcuts that are provably
  bit-identical — the *empty-step* path (an all-zero incoming tensor
  contributes exactly ``0`` regardless of summation order);
* in float32, where the engine's documented contract is tolerance-based
  (identical predictions, spike counts within 1%), the measured-activity
  dispatch between the dense and sparse kernels is enabled.

Tests (and curious users) can force a branch with ``force="dense"`` /
``force="sparse"`` or the ``REPRO_SPARSE_MODE`` environment variable; forcing
bypasses the exactness gate, which is exactly what the kernel-equivalence
tests need.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "nonzero_fraction",
    "SparsityDispatcher",
    "calibrated_crossover",
    "clear_calibration_cache",
]

#: dispatcher decision labels
DENSE = "dense"
SPARSE = "sparse"
EMPTY = "empty"

#: crossover clamp: below ``_MIN_CROSSOVER`` the sparse path would never run,
#: above ``_MAX_CROSSOVER`` gather overhead always loses to one clean GEMM
_MIN_CROSSOVER = 0.02
_MAX_CROSSOVER = 0.60

#: fallback crossover when calibration is unavailable (e.g. kernels missing)
DEFAULT_CROSSOVER = 0.10

#: process-wide calibration cache keyed by layer geometry **and backend**
#: (the owning layer puts its resolved backend's name in the cache key), so
#: the hundreds of identical layers a sweep resets pay the (one-off, ~ms)
#: probe only once — while crossovers timed on one backend's kernels can
#: never steer another backend's dispatch in mixed-backend processes
_CALIBRATION_CACHE: Dict[Tuple, float] = {}


def clear_calibration_cache() -> None:
    """Drop every cached crossover (tests)."""
    _CALIBRATION_CACHE.clear()


def calibration_cache_snapshot() -> Dict[Tuple, float]:
    """Copy of the process-wide crossover cache (shipped to shard workers so
    their dispatch decisions match the parent's).  Keys carry the backend
    name, so a worker running a different backend than the snapshot's origin
    simply misses the cache and calibrates its own geometry."""
    return dict(_CALIBRATION_CACHE)


def install_calibration_cache(snapshot: Dict[Tuple, float]) -> None:
    """Install a parent process's crossover cache (worker-side)."""
    _CALIBRATION_CACHE.update(snapshot)


def nonzero_fraction(array: np.ndarray) -> float:
    """Fraction of nonzero entries — the measured activity of one step."""
    if array.size == 0:
        return 0.0
    return np.count_nonzero(array) / array.size


def _time_once(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def calibrated_crossover(
    dense_fn: Callable[[np.ndarray], object],
    sparse_fn: Callable[[np.ndarray], object],
    make_input: Callable[[float], np.ndarray],
    probe_fractions: Tuple[float, float] = (0.05, 0.40),
    repeats: int = 3,
) -> float:
    """Measure the dense/sparse crossover activity on a layer's own geometry.

    The sparse kernel's cost is (to first order) affine in the active
    fraction ``f`` — a fixed gather/detection overhead plus work proportional
    to the active set — while the dense kernel's cost is constant.  We time
    the dense kernel once and the sparse kernel at two probe fractions, fit
    ``T_sparse(f) = a + b·f`` and solve ``T_sparse(f*) = T_dense``.

    Timings use best-of-``repeats`` to shrug off scheduler noise; the result
    is clamped to ``[0.02, 0.60]`` so a noisy probe can neither disable the
    sparse path entirely nor enable it where it cannot win.
    """
    f_lo, f_hi = probe_fractions
    if not 0.0 < f_lo < f_hi <= 1.0:
        raise ValueError(f"probe fractions must satisfy 0 < lo < hi <= 1, got {probe_fractions}")
    x_lo = make_input(f_lo)
    x_hi = make_input(f_hi)
    dense_fn(x_hi)  # warm any lazily built buffers outside the timed region
    sparse_fn(x_lo)
    t_dense = min(_time_once(lambda: dense_fn(x_hi)) for _ in range(repeats))
    t_lo = min(_time_once(lambda: sparse_fn(x_lo)) for _ in range(repeats))
    t_hi = min(_time_once(lambda: sparse_fn(x_hi)) for _ in range(repeats))
    slope = (t_hi - t_lo) / (f_hi - f_lo)
    if slope <= 0.0:
        # sparse never gets more expensive with activity (tiny layer): if it
        # beats dense anywhere it beats it everywhere
        crossover = _MAX_CROSSOVER if t_hi <= t_dense else _MIN_CROSSOVER
    else:
        intercept = t_lo - slope * f_lo
        crossover = (t_dense - intercept) / slope
    return float(np.clip(crossover, _MIN_CROSSOVER, _MAX_CROSSOVER))


class SparsityDispatcher:
    """Per-layer dense/sparse kernel selector.

    Parameters
    ----------
    name:
        Owning layer's name (diagnostics).
    exact_only:
        When True (the float64 golden mode) the automatic policy never leaves
        the dense path except for the provably exact empty-step shortcut.
    crossover:
        Activity fraction below which the sparse kernel wins; usually filled
        in by :meth:`calibrate` at the layer's first reset.
    force:
        ``"dense"`` / ``"sparse"`` pins the decision (tests, experiments) and
        bypasses the exactness gate; ``None`` defers to the
        ``REPRO_SPARSE_MODE`` environment variable (parsed by :meth:`reset`)
        and otherwise dispatches automatically.
    """

    def __init__(
        self,
        name: str,
        exact_only: bool = False,
        crossover: float = DEFAULT_CROSSOVER,
        force: Optional[str] = None,
    ) -> None:
        self.name = name
        self.exact_only = bool(exact_only)
        self.crossover = float(crossover)
        self.force = force
        #: ``REPRO_SPARSE_MODE`` as parsed by the last :meth:`reset`
        #: (``None`` for unset or ``auto``)
        self.env_mode: Optional[str] = None
        self.calibrated = False
        #: decisions taken since the last reset (diagnostics / tests)
        self.decisions: Dict[str, int] = {DENSE: 0, SPARSE: 0, EMPTY: 0}

    @property
    def forced(self) -> Optional[str]:
        """The pinned branch: ``force`` wins over the environment's mode."""
        return self.force or self.env_mode

    def reset(self) -> None:
        """Start a simulation: clear the decision counters and parse
        ``REPRO_SPARSE_MODE`` once (``auto`` or unset dispatch automatically).

        Raises :class:`ValueError` on an invalid value (or an invalid
        ``force``), so a typo fails at layer reset rather than on a step.
        """
        self.reset_counters()
        if self.force not in (None, DENSE, SPARSE):
            raise ValueError(
                f"{self.name}: force must be 'dense', 'sparse' or None, got {self.force!r}"
            )
        mode = (os.environ.get("REPRO_SPARSE_MODE") or "auto").strip().lower()
        if mode not in (DENSE, SPARSE, "auto"):
            raise ValueError(
                f"{self.name}: REPRO_SPARSE_MODE must be 'dense', 'sparse' or 'auto', "
                f"got {mode!r}"
            )
        self.env_mode = None if mode == "auto" else mode

    def calibrate(
        self,
        cache_key: Tuple,
        dense_fn: Callable[[np.ndarray], object],
        sparse_fn: Callable[[np.ndarray], object],
        make_input: Callable[[float], np.ndarray],
    ) -> float:
        """Auto-calibrate the crossover for this layer's geometry (cached).

        Called by the owning layer on its first ``reset``; identical
        geometries (across resets, layers and pipelines) share one probe via
        a process-wide cache.
        """
        cached = _CALIBRATION_CACHE.get(cache_key)
        if cached is None:
            cached = calibrated_crossover(dense_fn, sparse_fn, make_input)
            _CALIBRATION_CACHE[cache_key] = cached
        self.crossover = cached
        self.calibrated = True
        return cached

    def reset_counters(self) -> None:
        self.decisions = {DENSE: 0, SPARSE: 0, EMPTY: 0}

    def choose(self, fraction: float, sparse_available: bool = True) -> str:
        """Pick the propagation kernel for one step.

        Parameters
        ----------
        fraction:
            Measured incoming nonzero fraction (:func:`nonzero_fraction`).
        sparse_available:
            Whether the owning layer has a sparse kernel for the current
            geometry (e.g. strided convolutions fall back to dense).
        """
        forced = self.forced
        if forced == DENSE:
            decision = DENSE
        elif forced == SPARSE and sparse_available:
            decision = EMPTY if fraction == 0.0 else SPARSE
        elif fraction == 0.0:
            # an all-zero incoming tensor contributes exactly zero in any
            # summation order: safe even under the float64 exactness gate
            decision = EMPTY
        elif self.exact_only or not sparse_available:
            decision = DENSE
        else:
            decision = SPARSE if fraction < self.crossover else DENSE
        self.decisions[decision] += 1
        return decision

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SparsityDispatcher(name={self.name!r}, exact_only={self.exact_only}, "
            f"crossover={self.crossover:.3f}, calibrated={self.calibrated})"
        )
