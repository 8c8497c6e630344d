"""The numpy kernels behind every hot path of the simulation engine.

The engine's per-step work decomposes into a small set of kernel primitives:
buffer allocation, GEMM, the max-pool winner gather, the empty-step nonzero
count, im2col / direct-convolution plans, slab pooling, and the elementwise
integrate-and-fire update (alone, or fused with the burst threshold's update).
:class:`NumpyBackend` holds them all; the layers (:mod:`repro.snn.layers`),
neuron states (:mod:`repro.snn.neurons`) and threshold dynamics
(:mod:`repro.snn.thresholds`) decide *which* primitive runs when and call it
through their ``ops`` attribute.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.ann.im2col import DirectConvPlan, Im2colPlan, avgpool2x2

#: ``(consecutive, scratch, growing, max_burst_length)``: the per-neuron
#: consecutive-spike counter, an int64 scratch and a bool scratch of the
#: same shape, and the cap on burst growth (see
#: :class:`~repro.snn.thresholds.BurstThreshold`)
BurstCap = Tuple[np.ndarray, np.ndarray, np.ndarray, int]


class NumpyBackend:
    """The engine's kernels on plain numpy, shared process-wide.

    Contracts
    ---------
    * Every ``out=`` parameter is a preallocated buffer owned by the caller;
      the kernel writes the result there and returns it, so the engine stays
      zero-allocation in the steady state.  The neuron kernels update their
      caller's arrays in place.
    * One neuron-update call per spiking layer per step: :meth:`if_step`
      for scalar thresholds, :meth:`burst_if_step` for the burst threshold.
    * Float64 results are bit-identical to the seed engine
      (``benchmarks/perf/seed_reference.json``): the kernels compute the
      seed's values in the seed's order, and where a body was rewritten
      (the burst update's ``max`` form) every value is provably the same.
      Float32 results keep the seed's predictions.
    * The object holds no per-run state (all state lives in caller buffers),
      so one instance serves every layer, session and thread.

    The conv plans are the cached :class:`~repro.ann.im2col.Im2colPlan`
    (canonical, float64-exact path) and :class:`~repro.ann.im2col.DirectConvPlan`
    (stride-1 halo path used in float32).
    """

    name = "numpy"

    # -- buffer allocation -------------------------------------------------
    def empty(self, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        return np.empty(shape, dtype=dtype)

    def zeros(self, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def fill(self, array: np.ndarray, value: float) -> np.ndarray:
        array.fill(value)
        return array

    # -- GEMM family -------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.matmul(a, b, out=out)

    def add_inplace(self, target: np.ndarray, addend: np.ndarray) -> np.ndarray:
        target += addend
        return target

    def take_flat(
        self, a: np.ndarray, flat_indices: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        return np.take(a.reshape(-1), flat_indices, out=out)

    # -- activity scan -----------------------------------------------------
    def count_nonzero(self, x: np.ndarray) -> int:
        return int(np.count_nonzero(x))

    # -- convolution plans -------------------------------------------------
    def im2col_plan(
        self,
        batch_size: int,
        channels: int,
        height: int,
        width: int,
        kernel_h: int,
        kernel_w: int,
        stride: int,
        padding: int,
        dtype: np.dtype,
    ) -> Im2colPlan:
        return Im2colPlan(
            batch_size, channels, height, width,
            kernel_h, kernel_w, stride, padding, dtype=dtype,
        )

    def direct_conv_plan(
        self,
        batch_size: int,
        channels: int,
        height: int,
        width: int,
        kernel: int,
        padding: int,
        out_channels: int,
        dtype: np.dtype,
    ) -> DirectConvPlan:
        return DirectConvPlan(
            batch_size, channels, height, width,
            kernel, padding, out_channels, dtype=dtype,
        )

    # -- pooling kernels ---------------------------------------------------
    def avgpool2x2(self, incoming: np.ndarray, out: np.ndarray) -> np.ndarray:
        """2×2 / stride-2 average pooling over strided slab views, in the
        reference summation order (window (0,0), (0,1), (1,0), (1,1), then
        one divide)."""
        return avgpool2x2(incoming, out)

    def mean_columns(self, cols: np.ndarray, out_flat: np.ndarray) -> np.ndarray:
        return cols.mean(axis=1, out=out_flat)

    def argmax_columns(self, cols: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.argmax(cols, axis=1, out=out)

    # -- integrate-and-fire neuron kernels ---------------------------------
    def if_step(
        self,
        v_mem: np.ndarray,
        z: np.ndarray,
        threshold: np.ndarray,
        spikes: np.ndarray,
        signals: np.ndarray,
        amplitudes: np.ndarray,
        subtract_reset: bool,
        v_rest: float,
        allow_negative: bool,
    ) -> int:
        """One fused membrane update (Eqs. 1–5): integrate ``z``, compare to
        ``threshold``, emit boolean ``spikes`` / exact 0.0-1.0 ``signals`` /
        weighted ``amplitudes``, apply the reset rule, and return the spike
        count.  Every array is a caller-owned buffer updated in place.
        """
        v_mem += z
        np.greater_equal(v_mem, threshold, out=spikes)
        # the spikes as a 0.0/1.0 float array: float·float ufuncs are markedly
        # faster than bool→float converting ones, and every value is exact, so
        # th·signal ≡ th·spike bit for bit in both dtypes
        np.copyto(signals, spikes)
        np.multiply(threshold, signals, out=amplitudes)

        if subtract_reset:
            v_mem -= amplitudes
        else:
            np.copyto(v_mem, v_mem.dtype.type(v_rest), where=spikes)

        if not allow_negative:
            np.maximum(v_mem, v_rest, out=v_mem)
        return int(np.count_nonzero(spikes))

    def burst_if_step(
        self,
        v_mem: np.ndarray,
        z: np.ndarray,
        threshold: np.ndarray,
        spikes: np.ndarray,
        signals: np.ndarray,
        amplitudes: np.ndarray,
        subtract_reset: bool,
        v_rest: float,
        allow_negative: bool,
        g: np.ndarray,
        beta: float,
        v_th: float,
        ceiling: Optional[float],
        g_uniform: bool,
        cap: Optional[BurstCap] = None,
    ) -> int:
        """:meth:`if_step` against the per-neuron burst threshold
        ``threshold = g·v_th``, followed in the same call by the burst update
        of ``g`` and ``threshold`` (:func:`burst_update`, Eqs. 8–9).  Returns
        the spike count."""
        count = self.if_step(
            v_mem, z, threshold, spikes, signals, amplitudes,
            subtract_reset, v_rest, allow_negative,
        )
        burst_update(spikes, signals, count, threshold, g, beta, v_th, ceiling, g_uniform, cap)
        return count


def burst_update(
    spikes: np.ndarray,
    signals: np.ndarray,
    spike_count: int,
    threshold: np.ndarray,
    g: np.ndarray,
    beta: float,
    v_th: float,
    ceiling: Optional[float],
    g_uniform: bool,
    cap: Optional[BurstCap] = None,
) -> None:
    """The burst function's step (Eqs. 8–9), in place: ``g ← β·g`` where
    the neuron spiked, ``g ← 1`` where it stayed silent, then
    ``threshold ← g·v_th``.

    ``signals`` is the exact 0.0/1.0 rendering of the boolean ``spikes``.
    ``g ← max(min(g·β, ceiling)·s, 1)`` is the same value bit for bit as
    ``spike ? g·β : 1``: ``g ≥ 1``, so a spiking neuron's ``g·β`` exceeds 1
    and a silent one's product is 0.  ``ceiling`` clamps ``g·β`` to the
    largest finite value (``None`` skips a pass that is provably the
    identity).  A silent step over an all-ones ``g`` (``g_uniform``)
    changes nothing and returns at once.  ``cap``, when given, stops the
    growth of neurons whose burst has reached ``max_burst_length`` spikes.
    """
    if spike_count == 0 and g_uniform:
        return
    if cap is None:
        np.multiply(g, beta, out=g)
    else:
        consecutive, scratch, growing, max_burst_length = cap
        np.add(consecutive, 1, out=scratch)
        np.less(scratch, max_burst_length, out=growing)
        np.multiply(g, beta, out=g, where=growing)
        np.multiply(scratch, spikes, out=consecutive)
    if ceiling is not None:
        np.minimum(g, ceiling, out=g)
    np.multiply(g, signals, out=g)
    np.maximum(g, 1.0, out=g)
    np.multiply(g, v_th, out=threshold)


#: the one kernel object every layer uses unless a stand-in is passed
_NUMPY = NumpyBackend()


def check_backend_name(name) -> None:
    """Raise :class:`ValueError` unless ``name`` is ``None`` or ``"numpy"``
    (the ``backend`` fields of the simulation and serving configs)."""
    if name is not None and name != NumpyBackend.name:
        raise ValueError(f"unknown compute backend {name!r}; the only backend is 'numpy'")


def resolve_backend(value=None):
    """``value`` when it is a kernel object (such as an
    :class:`~repro.backends.instrument.InstrumentedBackend`), otherwise the
    shared :class:`NumpyBackend`."""
    return _NUMPY if value is None else value
