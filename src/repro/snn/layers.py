"""Spiking layers assembled by the DNN→SNN converter.

Each layer consumes the *weighted spike amplitudes* emitted by the previous
layer (or by the input encoder) and produces its own amplitudes:

``z = W · incoming + bias_scale · b``          (Eq. 1 / Eq. 5)
``spike if V_mem + z ≥ V_th(t)``               (Eq. 2)
``amplitude = V_th(t)``, reset by subtraction  (Eq. 4 / Eq. 5)

The pooling and flatten layers are linear re-arrangements of amplitudes and
carry no neurons of their own (the paper's neuron counts likewise exclude
them); max pooling uses the standard spiking gating approach of Rueckauer et
al. [12]: each window forwards the amplitude of the input unit with the
largest cumulative transmitted value.

Every kernel primitive a layer's hot path touches — GEMMs, conv plans,
pooling slabs, the max-pool winner read and the IF/threshold elementwise
updates — is a method of the numpy
:class:`~repro.backends.numpy_backend.NumpyBackend` (``self.ops``, bound at
``reset``); the layers orchestrate *which* kernel runs per step.  ``ops`` is
kept as a seam only so the counting
:class:`~repro.backends.instrument.InstrumentedBackend` can stand in for the
numpy kernels in the seam-contract tests and the traced benchmark replay.

Performance contract
--------------------
``step`` is called once per layer per simulation time step and is
allocation-free in the steady state:

* weights are kept as float64 masters and cast **once per reset** to the
  simulation dtype (float32 by default, float64 opt-in — see
  :mod:`repro.utils.dtypes`); per-step bias injection uses a precomputed
  ``bias_scale·b`` vector;
* whatever does not change within a run is settled at ``reset``, not per
  step: threshold positivity (by the threshold dynamics); the direct-conv
  kernel needs no settling, since the input geometry alone picks it;
* each neuron layer's update is one kernel call per step, made by its
  threshold dynamics' ``fire`` (burst coding fuses the IF update with the
  burst function's update);
* every synaptic and pooling layer dispatches each step through a per-layer
  :class:`~repro.utils.sparsity.SparsityDispatcher`: an all-zero incoming
  tensor short-circuits to a precomputed response (exact in every dtype),
  anything else runs the dense kernel; dense float32 stride-1 convolutions
  run on the direct (halo) plan rather than the column fill;
* the float64 exact path keeps the canonical cached
  :class:`~repro.ann.im2col.Im2colPlan` + GEMM pipeline, so float64 runs
  stay bit-identical to the seed engine;
* layers whose incoming drive is *periodic* (a phase- or real-coded input
  encoder feeding the first layer) can cache their synaptic input per phase
  via :meth:`_SpikingNeuronLayer.enable_input_caching` — bit-exact in every
  dtype, since the cached array is the identical GEMM result;
* GEMMs write into preallocated output buffers, and the max-pool gather uses
  precomputed index arithmetic instead of unfolding its input a second time;
* the arrays returned by ``step`` are reusable buffers, **valid only until
  the layer's next step** — copy them if they must survive longer;
* :meth:`SpikingLayer.shrink_batch` drops converged images mid-run (the
  engine's early-exit path), slicing carry-over state and rebuilding the
  per-batch scratch buffers.

In float64 mode every operation matches the original (allocating) engine
bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ann.im2col import DirectConvPlan, Im2colPlan, conv_output_size
from repro.backends import resolve_backend
from repro.snn.neurons import IFNeuronState, ResetMode
from repro.snn.thresholds import ThresholdDynamics
from repro.utils import sparsity
from repro.utils.dtypes import DTypeLike, resolve_dtype
from repro.utils.sparsity import SparsityDispatcher

#: cap on cached periodic synaptic input (elements across all phases) so the
#: phase cache cannot balloon on huge layers
_INPUT_CACHE_MAX_ELEMENTS = 16_000_000


def _cast_cached(cache: Dict[str, np.ndarray], key: str, master: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Fetch (or create) the ``dtype`` cast of a master array.

    ``np.asarray`` returns the master itself when the dtype already matches,
    so float64 simulations run directly on the float64 masters.
    """
    cached = cache.get(key)
    if cached is None or cached.dtype != dtype:
        cached = np.asarray(master, dtype=dtype)
        cache[key] = cached
    return cached


class SpikingLayer:
    """Base class for all layers of a :class:`~repro.snn.network.SpikingNetwork`."""

    #: whether the layer contains integrate-and-fire neurons that emit spikes
    is_spiking = False

    def __init__(self, name: str) -> None:
        self.name = name
        self.batch_size: Optional[int] = None
        #: simulation dtype resolved at the most recent reset()
        self.dtype: np.dtype = resolve_dtype(None)
        #: the layer's kernel object (the shared numpy backend unless
        #: reset() was handed a stand-in)
        self.ops = resolve_backend(None)
        #: boolean spike array of the most recent step (spiking layers only)
        self.last_spikes: Optional[np.ndarray] = None
        #: nonzero count of the most recent step's output, when the layer can
        #: report it for free (spiking layers: the spike count); the engine
        #: forwards it to the next layer as ``incoming_nonzero`` so cheap
        #: layers can skip re-scanning their input for activity
        self.output_nonzero: Optional[int] = None

    def reset(self, batch_size: int, dtype: DTypeLike = None, backend=None) -> None:
        """Allocate per-simulation state for a batch of ``batch_size`` samples.

        ``dtype`` selects the simulation precision for this run (``None``
        resolves through the project dtype policy); ``backend`` is ``None``
        for the numpy kernels or a kernel object standing in for them (the
        counting :class:`~repro.backends.instrument.InstrumentedBackend`).
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.batch_size = batch_size
        self.dtype = resolve_dtype(dtype)
        self.ops = resolve_backend(backend)
        self.last_spikes = None

    def step(
        self, incoming: np.ndarray, t: int, incoming_nonzero: Optional[int] = None
    ) -> np.ndarray:
        """Consume incoming amplitudes at step ``t`` and return outgoing ones.

        ``incoming_nonzero`` is an optional exact nonzero count of
        ``incoming`` supplied by the producing layer (see
        :attr:`output_nonzero`); layers may use it to skip an activity scan.
        """
        raise NotImplementedError

    def shrink_batch(self, keep: np.ndarray) -> None:
        """Keep only the batch rows ``keep`` (converged-image early exit).

        Called mid-simulation by the engine when images freeze; subclasses
        slice their carry-over state and rebuild per-batch scratch buffers.
        """
        keep = np.asarray(keep, dtype=np.intp)
        if keep.size == 0:
            raise ValueError(f"{self.name}: shrink_batch requires at least one kept row")
        self.batch_size = int(keep.size)
        self.last_spikes = None

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Per-sample output shape given a per-sample input shape."""
        raise NotImplementedError

    @property
    def num_neurons(self) -> int:
        """Number of IF neurons per sample (0 for linear re-arrangement layers)."""
        return 0

    def spike_count(self) -> int:
        """Number of spikes emitted at the most recent step."""
        if self.last_spikes is None:
            return 0
        return int(np.count_nonzero(self.last_spikes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class _SpikingNeuronLayer(SpikingLayer):
    """Shared machinery for layers that own IF neurons (dense and conv)."""

    is_spiking = True

    def __init__(
        self,
        name: str,
        threshold: ThresholdDynamics,
        reset_mode: "ResetMode | str" = ResetMode.SUBTRACT,
        bias_scale: float = 1.0,
    ) -> None:
        super().__init__(name)
        self.threshold = threshold
        self.reset_mode = ResetMode.from_value(reset_mode)
        self.bias_scale = float(bias_scale)
        self.state: Optional[IFNeuronState] = None
        self._cast_cache: Dict[str, np.ndarray] = {}
        self.dispatcher = SparsityDispatcher(name)
        self._input_period: Optional[int] = None
        self._z_cache: Optional[List[Optional[np.ndarray]]] = None
        #: precomputed response to an all-zero input (the scaled bias)
        self._z_empty: Optional[np.ndarray] = None

    def _state_shape(self, batch_size: int) -> Tuple[int, ...]:
        raise NotImplementedError

    def _prepare_buffers(self, batch_size: int) -> None:
        """Hook for subclasses to (re)build their per-run scratch buffers."""

    def reset(self, batch_size: int, dtype: DTypeLike = None, backend=None) -> None:
        super().reset(batch_size, dtype, backend)
        shape = self._state_shape(batch_size)
        if (
            self.state is not None
            and self.state.shape == shape
            and self.state.dtype == self.dtype
            and self.state.reset_mode is self.reset_mode
        ):
            self.state.ops = self.ops  # a counting stand-in may replace the kernels
        else:
            self.state = IFNeuronState(
                shape, reset_mode=self.reset_mode, dtype=self.dtype, ops=self.ops
            )
        self.threshold.reset(shape, dtype=self.dtype, backend=self.ops)
        # positivity is settled once per reset, not re-checked on every step
        self.state.reset(thresholds_positive=self.threshold.positive_by_construction())
        self.dispatcher.reset()
        self._z_cache = None if self._input_period is None else [None] * self._input_period
        self._prepare_buffers(batch_size)

    def enable_input_caching(self, period: Optional[int]) -> None:
        """Cache the synaptic input per phase of a ``period``-periodic drive.

        The simulation engine enables this on the first layer when the input
        encoder declares a steady period (phase coding repeats its weighted
        spike pattern every ``period`` steps; real coding every step), so the
        layer's GEMM runs only during the first period and is replayed from
        the cache afterwards — bit-exact in every dtype, since the cached
        array *is* the earlier result.  ``None`` disables caching.
        """
        if period is None or period <= 0:
            self._input_period = None
            self._z_cache = None
            return
        period = int(period)
        cache_elements = period * (self.batch_size or 0) * max(self.num_neurons, 1)
        if cache_elements > _INPUT_CACHE_MAX_ELEMENTS:
            self._input_period = None
            self._z_cache = None
            return
        self._input_period = period
        self._z_cache = [None] * period

    def shrink_batch(self, keep: np.ndarray) -> None:
        super().shrink_batch(keep)
        keep = np.asarray(keep, dtype=np.intp)
        if self.state is not None:
            self.state.shrink_batch(keep)
        self.threshold.shrink_batch(keep)
        if self._z_cache is not None:
            self._z_cache = [
                None if z is None else np.ascontiguousarray(z[keep]) for z in self._z_cache
            ]
        self._prepare_buffers(self.batch_size)

    def _check_incoming(self, incoming: np.ndarray) -> None:
        """Raise :class:`ValueError` when ``incoming`` has the wrong shape."""
        raise NotImplementedError

    def _dense_input(self, incoming: np.ndarray) -> np.ndarray:
        """``W · incoming + bias_scale · b`` by the layer's dense kernel."""
        raise NotImplementedError

    def _synaptic_input(
        self, incoming: np.ndarray, nonzero: Optional[int] = None
    ) -> np.ndarray:
        """The step's synaptic input: the precomputed bias response when
        ``incoming`` is all zero (exact in every dtype), the dense kernel
        otherwise.  ``nonzero`` is the engine's exact count, when known."""
        self._check_incoming(incoming)
        if self.dispatcher.choose(self.ops, incoming, nonzero) == sparsity.EMPTY:
            return self._z_empty
        return self._dense_input(incoming)

    def step(
        self, incoming: np.ndarray, t: int, incoming_nonzero: Optional[int] = None
    ) -> np.ndarray:
        if self.state is None:
            raise RuntimeError(f"{self.name}: reset(batch_size) must be called before step()")
        incoming = np.asarray(incoming)
        cache = self._z_cache
        if cache is not None:
            phase = t % self._input_period
            z = cache[phase]
            if z is None:
                # np.array copies the (possibly strided) result into a private
                # contiguous block that survives future steps
                z = np.array(self._synaptic_input(incoming, incoming_nonzero))
                cache[phase] = z
        else:
            z = self._synaptic_input(incoming, incoming_nonzero)
        spikes, amplitudes = self.threshold.fire(self.state, z, t)
        self.last_spikes = spikes
        self.output_nonzero = self.state.last_spike_count
        return amplitudes

    def membrane(self) -> np.ndarray:
        """Copy of the current membrane potentials (analysis / tests)."""
        if self.state is None:
            raise RuntimeError(f"{self.name}: layer has no state before reset()")
        return self.state.membrane_copy()


class SpikingDense(_SpikingNeuronLayer):
    """Fully connected spiking layer.

    Parameters
    ----------
    weight:
        Normalised weight matrix of shape ``(in_features, out_features)``;
        kept as a float64 master and cast to the simulation dtype at reset.
    bias:
        Optional bias of shape ``(out_features,)``; injected every time step
        scaled by ``bias_scale``.
    threshold:
        The layer's :class:`~repro.snn.thresholds.ThresholdDynamics` (the
        hidden-layer coding scheme).
    """

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        threshold: ThresholdDynamics,
        reset_mode: "ResetMode | str" = ResetMode.SUBTRACT,
        bias_scale: float = 1.0,
        name: str = "spiking_dense",
    ) -> None:
        super().__init__(name, threshold, reset_mode, bias_scale)
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ValueError(f"{name}: weight must be 2-D, got shape {weight.shape}")
        self.weight = weight
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        if self.bias is not None and self.bias.shape != (weight.shape[1],):
            raise ValueError(
                f"{name}: bias shape {self.bias.shape} does not match out features "
                f"{weight.shape[1]}"
            )
        self._w_sim: Optional[np.ndarray] = None
        self._scaled_bias: Optional[np.ndarray] = None
        self._z: Optional[np.ndarray] = None

    @property
    def in_features(self) -> int:
        return int(self.weight.shape[0])

    @property
    def out_features(self) -> int:
        return int(self.weight.shape[1])

    @property
    def num_neurons(self) -> int:
        return self.out_features

    def _state_shape(self, batch_size: int) -> Tuple[int, ...]:
        return (batch_size, self.out_features)

    def _prepare_buffers(self, batch_size: int) -> None:
        ops = self.ops
        self._w_sim = _cast_cached(self._cast_cache, "weight", self.weight, self.dtype)
        if self.bias is not None:
            self._scaled_bias = _cast_cached(
                self._cast_cache, "scaled_bias", self.bias_scale * self.bias, self.dtype
            )
        if self._z is None or self._z.shape != (batch_size, self.out_features) or self._z.dtype != self.dtype:
            self._z = ops.empty((batch_size, self.out_features), self.dtype)
        if self._z_empty is None or self._z_empty.shape != self._z.shape or self._z_empty.dtype != self.dtype:
            self._z_empty = ops.zeros((batch_size, self.out_features), self.dtype)
            if self._scaled_bias is not None:
                ops.add_inplace(self._z_empty, self._scaled_bias)

    def _dense_input(self, incoming: np.ndarray) -> np.ndarray:
        z = self._z
        assert z is not None and self._w_sim is not None
        ops = self.ops
        ops.matmul(incoming, self._w_sim, z)
        if self._scaled_bias is not None:
            ops.add_inplace(z, self._scaled_bias)
        return z

    def _check_incoming(self, incoming: np.ndarray) -> None:
        if incoming.ndim != 2 or incoming.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected incoming shape (N, {self.in_features}), "
                f"got {incoming.shape}"
            )

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (self.out_features,)


class SpikingConv2D(_SpikingNeuronLayer):
    """Convolutional spiking layer (channel-first).

    A step whose input is all zero takes the precomputed bias response (see
    :class:`~repro.utils.sparsity.SparsityDispatcher`); any other step runs
    one of two dense kernels, fixed by the dtype and stride:

    * **canonical** — cached :class:`~repro.ann.im2col.Im2colPlan` fill + one
      GEMM, bit-identical to the seed engine (float64, and float32 strided
      convolutions);
    * **direct** — a stride-1 :class:`~repro.ann.im2col.DirectConvPlan` that
      skips the column materialisation (float32).  Inputs of at most four
      channels, and batches small enough that the panel of every tap window
      fits the plan's byte budget, run one GEMM over that panel (the per-tap
      GEMMs would be BLAS-overhead bound); the rest run one accumulating GEMM
      per kernel tap over a padded halo buffer.

    All buffers are built lazily per (batch, dtype) geometry and reused
    across steps.
    """

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        threshold: ThresholdDynamics,
        stride: int = 1,
        padding: int = 0,
        reset_mode: "ResetMode | str" = ResetMode.SUBTRACT,
        bias_scale: float = 1.0,
        input_shape: Optional[Tuple[int, int, int]] = None,
        name: str = "spiking_conv",
    ) -> None:
        super().__init__(name, threshold, reset_mode, bias_scale)
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 4 or weight.shape[2] != weight.shape[3]:
            raise ValueError(
                f"{name}: weight must be (out_c, in_c, k, k), got shape {weight.shape}"
            )
        self.weight = weight
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        if self.bias is not None and self.bias.shape != (weight.shape[0],):
            raise ValueError(
                f"{name}: bias shape {self.bias.shape} does not match out channels "
                f"{weight.shape[0]}"
            )
        if stride <= 0:
            raise ValueError(f"{name}: stride must be positive, got {stride}")
        if padding < 0:
            raise ValueError(f"{name}: padding must be non-negative, got {padding}")
        self.stride = stride
        self.padding = padding
        if input_shape is None:
            raise ValueError(f"{name}: input_shape (C, H, W) is required")
        self.input_shape = tuple(int(v) for v in input_shape)
        if self.input_shape[0] != weight.shape[1]:
            raise ValueError(
                f"{name}: input channels {self.input_shape[0]} do not match weight "
                f"in_channels {weight.shape[1]}"
            )
        self._out_shape = self.output_shape(self.input_shape)
        self._weight_matrix = self.weight.reshape(self.weight.shape[0], -1)
        # (K·K, C, out_c) tap stack for the direct plan (float64 master)
        self._tap_master = np.ascontiguousarray(
            self.weight.transpose(2, 3, 1, 0).reshape(-1, self.weight.shape[1], self.weight.shape[0])
        )
        self._plan: Optional[Im2colPlan] = None
        self._direct: Optional[DirectConvPlan] = None
        self._wmat_t: Optional[np.ndarray] = None
        self._taps: Optional[np.ndarray] = None
        self._scaled_bias: Optional[np.ndarray] = None
        self._z2d: Optional[np.ndarray] = None
        self._z4: Optional[np.ndarray] = None

    @property
    def out_channels(self) -> int:
        return int(self.weight.shape[0])

    @property
    def kernel_size(self) -> int:
        return int(self.weight.shape[2])

    @property
    def num_neurons(self) -> int:
        c, h, w = self._out_shape
        return int(c * h * w)

    def _state_shape(self, batch_size: int) -> Tuple[int, ...]:
        return (batch_size,) + self._out_shape

    def _prepare_buffers(self, batch_size: int) -> None:
        out_c, out_h, out_w = self._out_shape
        ops = self.ops
        wmat = _cast_cached(self._cast_cache, "weight_matrix", self._weight_matrix, self.dtype)
        self._wmat_t = wmat.T
        self._taps = _cast_cached(self._cast_cache, "taps", self._tap_master, self.dtype)
        if self.bias is not None:
            self._scaled_bias = _cast_cached(
                self._cast_cache, "scaled_bias", self.bias_scale * self.bias, self.dtype
            )
        empty_shape = (batch_size, out_c, out_h, out_w)
        if self._z_empty is None or self._z_empty.shape != empty_shape or self._z_empty.dtype != self.dtype:
            self._z_empty = ops.zeros(empty_shape, self.dtype)
            if self._scaled_bias is not None:
                ops.add_inplace(self._z_empty, self._scaled_bias[:, None, None])

    def _canonical_plan(self) -> Im2colPlan:
        c, h, w = self.input_shape
        out_c, out_h, out_w = self._out_shape
        batch_size = self.batch_size
        if (
            self._plan is None
            or self._plan.input_shape != (batch_size, c, h, w)
            or self._plan.dtype != self.dtype
        ):
            self._plan = self.ops.im2col_plan(
                batch_size, c, h, w,
                self.kernel_size, self.kernel_size, self.stride, self.padding,
                self.dtype,
            )
            self._z2d = self.ops.empty((batch_size * out_h * out_w, out_c), self.dtype)
            # (N, out_h, out_w, out_c) -> (N, out_c, out_h, out_w) view, built once
            self._z4 = self._z2d.reshape(batch_size, out_h, out_w, out_c).transpose(0, 3, 1, 2)
        return self._plan

    def _direct_plan(self) -> DirectConvPlan:
        c, h, w = self.input_shape
        batch_size = self.batch_size
        if (
            self._direct is None
            or self._direct.input_shape != (batch_size, c, h, w)
            or self._direct.dtype != self.dtype
        ):
            self._direct = self.ops.direct_conv_plan(
                batch_size, c, h, w,
                self.kernel_size, self.padding, self.out_channels, self.dtype,
            )
        return self._direct

    def _canonical_input(self, incoming: np.ndarray) -> np.ndarray:
        plan = self._canonical_plan()
        assert self._z2d is not None and self._z4 is not None
        ops = self.ops
        cols = plan.fill(incoming)
        ops.matmul(cols, self._wmat_t, self._z2d)
        if self._scaled_bias is not None:
            ops.add_inplace(self._z2d, self._scaled_bias)
        return self._z4

    def _dense_input(self, incoming: np.ndarray) -> np.ndarray:
        # float64 is the exact-match reference precision: stay on the
        # canonical im2col pipeline there (the direct plan reassociates)
        if self.dtype == np.float64 or self.stride != 1:
            return self._canonical_input(incoming)
        return self._direct_plan().run(incoming, self._taps, self._scaled_bias)

    def _check_incoming(self, incoming: np.ndarray) -> None:
        expected_c = self.input_shape[0]
        if incoming.ndim != 4 or incoming.shape[1] != expected_c:
            raise ValueError(
                f"{self.name}: expected incoming shape (N, {expected_c}, H, W), "
                f"got {incoming.shape}"
            )

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        out_h = conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (self.out_channels, out_h, out_w)


class SpikingAvgPool2D(SpikingLayer):
    """Average pooling of spike amplitudes (linear, neuron-free).

    Uses a cached im2col plan (built lazily on the first step, when the input
    geometry is known) and a preallocated output buffer.
    """

    def __init__(self, pool_size: int = 2, stride: Optional[int] = None, name: str = "spiking_avgpool") -> None:
        super().__init__(name)
        if pool_size <= 0:
            raise ValueError(f"{name}: pool_size must be positive, got {pool_size}")
        self.pool_size = pool_size
        self.stride = stride if stride is not None else pool_size
        self._plan: Optional[Im2colPlan] = None
        self._shape: Optional[Tuple[int, int, int, int]] = None
        self._out: Optional[np.ndarray] = None
        self._mean_flat: Optional[np.ndarray] = None
        self.dispatcher = SparsityDispatcher(name)

    def reset(self, batch_size: int, dtype: DTypeLike = None, backend=None) -> None:
        super().reset(batch_size, dtype, backend)
        self.dispatcher.reset()

    @property
    def _slab_mode(self) -> bool:
        """2×2 / stride-2 pooling (the only config the models use) averages
        four strided slab views directly — ~10× faster than unfold + mean and
        bit-identical (same sequential add order, same final divide)."""
        return self.pool_size == 2 and self.stride == 2

    def _ensure_buffers(self, shape: Tuple[int, int, int, int]) -> None:
        n, c, h, w = shape
        if self._shape == shape and self._out is not None and self._out.dtype == self.dtype:
            return
        self._shape = shape
        if self._slab_mode:
            out_h = conv_output_size(h, self.pool_size, self.stride, 0)
            out_w = conv_output_size(w, self.pool_size, self.stride, 0)
            self._plan = None
            self._out = self.ops.empty((n, c, out_h, out_w), self.dtype)
            self._mean_flat = None
        else:
            self._plan = self.ops.im2col_plan(
                n * c, 1, h, w, self.pool_size, self.pool_size, self.stride, 0, self.dtype
            )
            self._out = self.ops.empty((n, c, self._plan.out_h, self._plan.out_w), self.dtype)
            self._mean_flat = self._out.reshape(-1)

    def shrink_batch(self, keep: np.ndarray) -> None:
        super().shrink_batch(keep)
        self._shape = None  # buffers rebuilt for the smaller batch on next step

    def step(
        self, incoming: np.ndarray, t: int, incoming_nonzero: Optional[int] = None
    ) -> np.ndarray:
        del t
        incoming = np.asarray(incoming)
        if not incoming.flags.c_contiguous:
            incoming = np.ascontiguousarray(incoming)
        n, c, h, w = incoming.shape
        self._ensure_buffers((n, c, h, w))
        out = self._out
        assert out is not None
        ops = self.ops
        if self.dispatcher.choose(ops, incoming, incoming_nonzero) == sparsity.EMPTY:
            # pooling an all-zero step is exactly zero in every dtype
            ops.fill(out, 0.0)
            return out
        if self._slab_mode:
            return ops.avgpool2x2(incoming, out)
        plan = self._plan
        assert plan is not None and self._mean_flat is not None
        cols = plan.fill(incoming.reshape(n * c, 1, h, w))
        ops.mean_columns(cols, self._mean_flat)
        return out

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        out_h = conv_output_size(h, self.pool_size, self.stride, 0)
        out_w = conv_output_size(w, self.pool_size, self.stride, 0)
        return (c, out_h, out_w)


class SpikingMaxPool2D(SpikingLayer):
    """Spiking max pooling via cumulative-evidence gating.

    Each pooling window forwards the current amplitude of the input unit whose
    *cumulative* transmitted amplitude is largest so far — the output-gating
    scheme proposed for converted SNNs by Rueckauer et al. [12].

    Only the cumulative evidence is unfolded (through a cached im2col plan);
    the winning input amplitudes are gathered directly from the incoming
    array with precomputed index arithmetic, eliminating the second unfold the
    original implementation performed every step.
    """

    def __init__(self, pool_size: int = 2, stride: Optional[int] = None, name: str = "spiking_maxpool") -> None:
        super().__init__(name)
        if pool_size <= 0:
            raise ValueError(f"{name}: pool_size must be positive, got {pool_size}")
        self.pool_size = pool_size
        self.stride = stride if stride is not None else pool_size
        self._cumulative: Optional[np.ndarray] = None
        self._plan: Optional[Im2colPlan] = None
        self._steps_seen = 0
        self.dispatcher = SparsityDispatcher(name)
        # gather machinery (built with the plan)
        self._winners: Optional[np.ndarray] = None
        self._ky: Optional[np.ndarray] = None
        self._kx: Optional[np.ndarray] = None
        self._base_y: Optional[np.ndarray] = None
        self._base_x: Optional[np.ndarray] = None
        self._base_off: Optional[np.ndarray] = None
        self._gated: Optional[np.ndarray] = None
        self._gated_flat: Optional[np.ndarray] = None

    def reset(self, batch_size: int, dtype: DTypeLike = None, backend=None) -> None:
        super().reset(batch_size, dtype, backend)
        self.dispatcher.reset()
        self._steps_seen = 0
        if self._cumulative is not None:
            self._cumulative.fill(0.0)

    def shrink_batch(self, keep: np.ndarray) -> None:
        super().shrink_batch(keep)
        keep = np.asarray(keep, dtype=np.intp)
        if self._cumulative is not None:
            # the cumulative evidence is carry-over state: keep the surviving
            # rows while the index machinery is rebuilt for the smaller batch
            kept = np.ascontiguousarray(self._cumulative[keep])
            self._cumulative = None
            self._ensure_buffers(kept.shape)
            np.copyto(self._cumulative, kept)

    def _ensure_buffers(self, shape: Tuple[int, int, int, int]) -> None:
        n, c, h, w = shape
        if (
            self._cumulative is not None
            and self._cumulative.shape == shape
            and self._cumulative.dtype == self.dtype
        ):
            return
        self._cumulative = self.ops.zeros(shape, self.dtype)
        self._plan = self.ops.im2col_plan(
            n * c, 1, h, w, self.pool_size, self.pool_size, self.stride, 0, self.dtype
        )
        out_h, out_w = self._plan.out_h, self._plan.out_w
        rows = n * c * out_h * out_w
        position = np.arange(rows, dtype=np.intp)
        oy = (position // out_w) % out_h
        ox = position % out_w
        nc = position // (out_h * out_w)
        self._base_y = oy * self.stride
        self._base_x = ox * self.stride
        self._base_off = nc * (h * w)
        self._winners = self.ops.empty((rows,), np.dtype(np.intp))
        self._ky = self.ops.empty((rows,), np.dtype(np.intp))
        self._kx = self.ops.empty((rows,), np.dtype(np.intp))
        self._gated = self.ops.empty((n, c, out_h, out_w), self.dtype)
        self._gated_flat = self._gated.reshape(-1)

    def step(
        self, incoming: np.ndarray, t: int, incoming_nonzero: Optional[int] = None
    ) -> np.ndarray:
        del t
        incoming = np.asarray(incoming)
        if not incoming.flags.c_contiguous:
            incoming = np.ascontiguousarray(incoming)
        if (
            self._steps_seen > 0
            and self._cumulative is not None
            and self._cumulative.shape != incoming.shape
        ):
            raise ValueError(
                f"{self.name}: incoming shape changed mid-simulation "
                f"({self._cumulative.shape} -> {incoming.shape})"
            )
        n, c, h, w = incoming.shape
        self._ensure_buffers((n, c, h, w))
        self._steps_seen += 1
        cumulative = self._cumulative
        plan = self._plan
        ops = self.ops
        assert cumulative is not None and plan is not None
        if self.dispatcher.choose(ops, incoming, incoming_nonzero) == sparsity.EMPTY:
            # nothing spiked: the cumulative evidence is unchanged, and every
            # window's winner forwards an amplitude of exactly zero
            assert self._gated is not None
            ops.fill(self._gated, 0.0)
            return self._gated
        ops.add_inplace(cumulative, incoming)

        cum_cols = plan.fill(cumulative.reshape(n * c, 1, h, w))
        winners, ky, kx = self._winners, self._ky, self._kx
        assert winners is not None and ky is not None and kx is not None
        ops.argmax_columns(cum_cols, winners)
        # winner index within the window -> absolute flat index into
        # `incoming` (plain intp bookkeeping, backend-independent)
        np.floor_divide(winners, self.pool_size, out=ky)
        np.remainder(winners, self.pool_size, out=kx)
        ky += self._base_y
        kx += self._base_x
        ky *= w
        ky += kx
        ky += self._base_off
        ops.take_flat(incoming, ky, self._gated_flat)
        return self._gated

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        out_h = conv_output_size(h, self.pool_size, self.stride, 0)
        out_w = conv_output_size(w, self.pool_size, self.stride, 0)
        return (c, out_h, out_w)


class SpikingFlatten(SpikingLayer):
    """Reshape ``(N, C, H, W)`` amplitudes to ``(N, C*H*W)`` rows (a view)."""

    def __init__(self, name: str = "spiking_flatten") -> None:
        super().__init__(name)

    def step(
        self, incoming: np.ndarray, t: int, incoming_nonzero: Optional[int] = None
    ) -> np.ndarray:
        del t
        self.output_nonzero = incoming_nonzero  # a reshape preserves the count
        incoming = np.asarray(incoming)
        return incoming.reshape(incoming.shape[0], -1)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        size = 1
        for dim in input_shape:
            size *= dim
        return (size,)


class OutputAccumulator(SpikingLayer):
    """Non-spiking output layer.

    The final dense layer of a converted SNN is read out by accumulating its
    membrane potential (the standard choice in conversion work): the class
    scores at time ``t`` are the accumulated ``W·incoming + bias_scale·b``.
    """

    def __init__(
        self,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        bias_scale: float = 1.0,
        name: str = "output",
    ) -> None:
        super().__init__(name)
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ValueError(f"{name}: weight must be 2-D, got shape {weight.shape}")
        self.weight = weight
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64)
        self.bias_scale = float(bias_scale)
        self._cast_cache: Dict[str, np.ndarray] = {}
        self._w_sim: Optional[np.ndarray] = None
        self._scaled_bias: Optional[np.ndarray] = None
        self._update: Optional[np.ndarray] = None
        self._logits: Optional[np.ndarray] = None

    @property
    def num_classes(self) -> int:
        return int(self.weight.shape[1])

    def reset(self, batch_size: int, dtype: DTypeLike = None, backend=None) -> None:
        super().reset(batch_size, dtype, backend)
        self._w_sim = _cast_cached(self._cast_cache, "weight", self.weight, self.dtype)
        if self.bias is not None:
            self._scaled_bias = _cast_cached(
                self._cast_cache, "scaled_bias", self.bias_scale * self.bias, self.dtype
            )
        shape = (batch_size, self.num_classes)
        if (
            self._logits is not None
            and self._logits.shape == shape
            and self._logits.dtype == self.dtype
        ):
            self._logits.fill(0.0)
        else:
            self._logits = self.ops.zeros(shape, self.dtype)
            self._update = self.ops.empty(shape, self.dtype)

    def shrink_batch(self, keep: np.ndarray) -> None:
        super().shrink_batch(keep)
        keep = np.asarray(keep, dtype=np.intp)
        if self._logits is not None:
            self._logits = np.ascontiguousarray(self._logits[keep])
            self._update = np.empty_like(self._logits)

    def step(
        self, incoming: np.ndarray, t: int, incoming_nonzero: Optional[int] = None
    ) -> np.ndarray:
        del t, incoming_nonzero
        if self._logits is None or self._update is None or self._w_sim is None:
            raise RuntimeError(f"{self.name}: reset(batch_size) must be called before step()")
        incoming = np.asarray(incoming)
        if incoming.ndim != 2 or incoming.shape[1] != self.weight.shape[0]:
            raise ValueError(
                f"{self.name}: expected incoming shape (N, {self.weight.shape[0]}), "
                f"got {incoming.shape}"
            )
        ops = self.ops
        ops.matmul(incoming, self._w_sim, self._update)
        if self._scaled_bias is not None:
            ops.add_inplace(self._update, self._scaled_bias)
        ops.add_inplace(self._logits, self._update)
        return self._logits

    @property
    def logits(self) -> np.ndarray:
        """Accumulated class scores."""
        if self._logits is None:
            raise RuntimeError(f"{self.name}: reset(batch_size) must be called before use")
        return self._logits

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (self.num_classes,)
