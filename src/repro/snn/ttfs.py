"""Time-to-first-spike (TTFS) input coding — a registry-only extension.

This module is the proof of the scheme registry's extension contract: a new
coding lands as one self-contained file.  Nothing else in the code base names
"ttfs" — ``NeuralCoding.from_value``, ``make_encoder``,
``HybridCodingScheme.from_notation``, the pipeline, the CLI
(``repro --list-schemes`` / ``repro compare --schemes ttfs-burst``) and the
experiments all resolve it through :mod:`repro.core.registry`.

Coding model
------------
Classic TTFS transmits a value as the *latency* of a single spike: brighter
inputs fire earlier.  Within each window of ``window`` steps (the scheme's
``phase_period`` parameter doubles as the window length), the input ``x`` in
``[0, 1]`` is quantised to ``q = round(x · (window − 1))`` and a single spike
of amplitude ``x · v_th`` is emitted at phase ``window − 1 − q``; ``x = 0``
stays silent.  The value therefore arrives once per window — a throughput of
``1/window`` per step, matching phase coding — ordered by intensity, which is
what makes TTFS the sparsest of the classic input codings (at most one spike
per input neuron per window).

Like the phase and real encoders, the TTFS output is strictly periodic
(:attr:`TTFSEncoder.steady_period` equals the window), so it inherits the
engine's per-phase synaptic-input caching, plan reuse, the empty-step
shortcut and converged-image early exit without any code of its own — every scheme that
registers gets the substrate for free.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.registry import register_encoder
from repro.snn.encoding import EncodedStep, InputEncoder
from repro.utils.config import validate_positive
from repro.utils.dtypes import DTypeLike
from repro.utils.rng import SeedLike


class TTFSEncoder(InputEncoder):
    """Time-to-first-spike input coding: one spike per window, earlier = brighter.

    Parameters
    ----------
    v_th:
        Amplitude scale; a spike carries ``x · v_th`` (the full analog value,
        delivered once per window).
    window:
        Window length in steps (the quantisation resolution of the spike
        latency); reuses the scheme's ``phase_period`` parameter.
    """

    coding = "ttfs"
    #: one spike per input neuron per window, never co-located with zeros
    values_nonzero_tracks_spikes = True

    def __init__(self, v_th: float = 1.0, window: int = 8) -> None:
        validate_positive("v_th", v_th)
        if window <= 0 or window > 1024:
            raise ValueError(f"window must be in [1, 1024], got {window}")
        self.v_th = float(v_th)
        self.window = int(window)
        self._fire_phase: Optional[np.ndarray] = None
        self._amplitudes: Optional[np.ndarray] = None
        self._spikes: Optional[np.ndarray] = None
        self._values: Optional[np.ndarray] = None

    @property
    def throughput_factor(self) -> float:  # type: ignore[override]
        return 1.0 / self.window

    @property
    def steady_period(self) -> Optional[int]:
        return self.window  # one spike per neuron, at the same phase each window

    def reset(self, x: np.ndarray, dtype: DTypeLike = None) -> None:
        super().reset(x, dtype)
        # Latency quantisation in float64 (like the phase encoder's bit
        # planes) so the firing phase is dtype-independent.
        quantised = np.round(
            np.asarray(self._x, dtype=np.float64) * (self.window - 1)
        ).astype(np.int64)
        self._fire_phase = (self.window - 1) - quantised
        # exact zeros never fire (no spike can carry amplitude 0)
        self._fire_phase[np.asarray(self._x, dtype=np.float64) == 0.0] = -1
        self._amplitudes = np.multiply(self._x, self.v_th).astype(self.dtype, copy=False)
        self._spikes = np.empty(self._x.shape, dtype=bool)
        self._values = np.empty(self._x.shape, dtype=self.dtype)

    def shrink_batch(self, keep: np.ndarray) -> None:
        super().shrink_batch(keep)
        keep = np.asarray(keep, dtype=np.intp)
        if self._fire_phase is not None:
            self._fire_phase = np.ascontiguousarray(self._fire_phase[keep])
            self._amplitudes = np.ascontiguousarray(self._amplitudes[keep])
            self._spikes = np.empty(self._x.shape, dtype=bool)
            self._values = np.empty(self._x.shape, dtype=self.dtype)

    def step(self, t: int) -> EncodedStep:
        if self._fire_phase is None or self._spikes is None or self._values is None:
            raise RuntimeError("encoder.reset(x) must be called before step()")
        np.equal(self._fire_phase, t % self.window, out=self._spikes)
        np.multiply(self._spikes, self._amplitudes, out=self._values)
        return EncodedStep(values=self._values, spikes=self._spikes)

    def describe(self) -> str:
        return f"TTFSEncoder(v_th={self.v_th}, window={self.window})"


@register_encoder(
    "ttfs",
    default_v_th=1.0,
    description="time-to-first-spike: one spike per window, earlier = brighter (input-only)",
)
def _build_ttfs_encoder(params, seed: SeedLike = None) -> InputEncoder:
    del seed
    return TTFSEncoder(v_th=params.v_th, window=params.phase_period)
