"""Firing-threshold dynamics implementing the neural coding schemes.

The coding scheme used by a (hidden) layer is entirely determined by how its
firing threshold ``V_th(t)`` evolves:

* **rate coding** — constant threshold ``v_th`` (Diehl et al. [11]);
* **phase coding** — global oscillation ``V_th(t) = Π(t)·v_th`` with
  ``Π(t) = 2^-(1 + mod(t, k))`` (Eq. 6–7, Kim et al. [14]);
* **burst coding** (this paper) — per-neuron adaptation
  ``g(t) = β·g(t−1)`` while the neuron keeps firing and ``g(t) = 1``
  otherwise, with ``V_th(t) = g(t)·v_th`` (Eq. 8–9).

Because spikes are *weighted* by the presynaptic threshold at firing time
(Eq. 5 / Eq. 10), a burst of consecutive spikes carries geometrically growing
amplitudes ``v_th, β·v_th, β²·v_th, …`` — this is the "synaptic potentiation"
effect that lets a neuron drain a large membrane backlog in logarithmically
many steps, which is the paper's central mechanism.

Performance contract
--------------------
``fire(state, z, t)`` runs once per layer per simulation step and makes one
kernel call, so it must not allocate.  :class:`ConstantThreshold` and
:class:`PhaseThreshold` hand a cached 0-d threshold (one per phase of the
period) to the scalar ``ops.if_step``.  :class:`BurstThreshold` makes one
``ops.burst_if_step`` call, which fires the neurons against its ``g·v_th``
buffer and then updates ``g`` and that buffer in place; ``thresholds(t)``
returns the buffer (only valid until the next step — copy if you keep it).
``reset`` accepts the simulation dtype from the owning layer (policy default
float32, see :mod:`repro.utils.dtypes`); positivity of ``v_th`` is validated
once at construction rather than per step.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backends import resolve_backend
from repro.backends.numpy_backend import burst_update
from repro.utils.config import validate_positive
from repro.utils.dtypes import DTypeLike, resolve_dtype


class ThresholdDynamics:
    """Interface for per-layer threshold evolution.

    Subclasses are attached to one spiking layer.  The network engine calls
    :meth:`reset` once per simulation, then :meth:`fire` once per step.  By
    default that reads :meth:`thresholds` (before spike generation at step
    ``t``) and reports the spikes to :meth:`update` afterwards.

    Stateful dynamics run their elementwise update kernels on the numpy
    backend's methods (``self.ops``); the owning layer forwards its own
    ``ops`` to :meth:`reset`, so a counting stand-in sees these calls too.
    """

    #: short name used in configuration strings ("rate", "phase", "burst")
    coding = "base"

    def reset(
        self, shape: Tuple[int, ...], dtype: DTypeLike = None, backend=None
    ) -> None:
        """Prepare internal state for a layer of the given state shape."""
        self._shape = tuple(shape)
        self._dtype = resolve_dtype(dtype)
        self.ops = resolve_backend(backend)

    def shrink_batch(self, keep: np.ndarray) -> None:
        """Keep only the batch rows ``keep`` (converged-image early exit).

        The default covers the stateless / globally shared dynamics (rate and
        phase thresholds are scalar); per-neuron dynamics override this.
        """
        shape = getattr(self, "_shape", None)
        if shape:
            self._shape = (int(len(keep)),) + tuple(shape[1:])

    @property
    def dtype(self) -> np.dtype:
        """Effective dtype of the threshold arrays (policy default until reset)."""
        return getattr(self, "_dtype", None) or resolve_dtype(None)

    def thresholds(self, t: int) -> np.ndarray:
        """Threshold values ``V_th(t)`` (broadcastable to the layer shape).

        May return a cached / reused array; treat it as read-only and copy it
        if it must survive past the next call.
        """
        raise NotImplementedError

    def positive_by_construction(self) -> bool:
        """Whether every value :meth:`thresholds` returns until the next
        :meth:`reset` is > 0, so the owning layer can skip the per-step check.

        Called after :meth:`reset`.  The default makes no promise; a subclass
        that overrides :meth:`thresholds` must override this as well.
        """
        return False

    def update(
        self,
        spikes: np.ndarray,
        spike_signals: Optional[np.ndarray] = None,
        spike_count: Optional[int] = None,
    ) -> None:
        """Observe the spikes emitted at the current step (default: stateless).

        ``spike_signals`` is an optional exact 0.0/1.0 float rendering of
        ``spikes`` (see :attr:`repro.snn.neurons.IFNeuronState.spike_signals`);
        stateful dynamics use it to stay on all-float ufunc loops.
        ``spike_count`` is an optional precomputed ``count_nonzero(spikes)``,
        letting per-neuron dynamics skip whole-array work on silent steps.
        """
        del spikes, spike_signals, spike_count

    def fire(self, state, z: np.ndarray, t: int) -> Tuple[np.ndarray, np.ndarray]:
        """Run the neurons of ``state`` (an
        :class:`~repro.snn.neurons.IFNeuronState`) for step ``t`` against
        these thresholds and observe the result; returns ``state.step``'s
        ``(spikes, amplitudes)``.

        The default is :meth:`thresholds`, ``state.step`` and :meth:`update`
        in turn; :class:`BurstThreshold` fuses all three into one kernel call.
        """
        spikes, amplitudes = state.step(z, self.thresholds(t))
        self.update(spikes, state.spike_signals, state.last_spike_count)
        return spikes, amplitudes

    def describe(self) -> str:
        """One-line description used in experiment logs."""
        return f"{type(self).__name__}"


class ConstantThreshold(ThresholdDynamics):
    """Rate coding: a fixed threshold ``v_th`` for every neuron and step.

    The 0-d threshold array is built once per ``reset`` (or lazily on first
    use) instead of on every step of every layer.
    """

    coding = "rate"

    def __init__(self, v_th: float = 1.0) -> None:
        validate_positive("v_th", v_th)
        self.v_th = float(v_th)
        self._cached: Optional[np.ndarray] = None

    def reset(
        self, shape: Tuple[int, ...], dtype: DTypeLike = None, backend=None
    ) -> None:
        super().reset(shape, dtype, backend)
        self._cached = np.asarray(self.v_th, dtype=self._dtype)

    def thresholds(self, t: int) -> np.ndarray:
        del t
        if self._cached is None:
            self._cached = np.asarray(self.v_th, dtype=self.dtype)
        return self._cached

    def positive_by_construction(self) -> bool:
        return bool(self.thresholds(0) > 0)

    def describe(self) -> str:
        return f"ConstantThreshold(v_th={self.v_th})"


class PhaseThreshold(ThresholdDynamics):
    """Phase coding: threshold oscillates with the global phase function.

    ``V_th(t) = 2^-(1 + mod(t, k)) · v_th`` (Eq. 6–7).  The same oscillation is
    shared by every neuron in the layer (it is a *global reference*), so a
    spike's amplitude encodes the bit-position of the phase at which it fired.
    The ``k`` per-phase 0-d arrays are precomputed once and reused.
    """

    coding = "phase"

    def __init__(self, v_th: float = 1.0, period: int = 8, phase_offset: int = 0) -> None:
        validate_positive("v_th", v_th)
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if phase_offset < 0:
            raise ValueError(f"phase_offset must be non-negative, got {phase_offset}")
        self.v_th = float(v_th)
        self.period = int(period)
        self.phase_offset = int(phase_offset)
        self._table: Optional[Tuple[np.ndarray, ...]] = None

    def oscillation(self, t: int) -> float:
        """The phase function ``Π(t)`` of Eq. 6."""
        phase = (t + self.phase_offset) % self.period
        return float(2.0 ** (-(1 + phase)))

    def reset(
        self, shape: Tuple[int, ...], dtype: DTypeLike = None, backend=None
    ) -> None:
        super().reset(shape, dtype, backend)
        self._table = self._build_table(self._dtype)

    def _build_table(self, dtype: np.dtype) -> Tuple[np.ndarray, ...]:
        return tuple(
            np.asarray(2.0 ** (-(1 + phase)) * self.v_th, dtype=dtype)
            for phase in range(self.period)
        )

    def thresholds(self, t: int) -> np.ndarray:
        if self._table is None:
            self._table = self._build_table(self.dtype)
        return self._table[(t + self.phase_offset) % self.period]

    def positive_by_construction(self) -> bool:
        return all(self.thresholds(t) > 0 for t in range(self.period))

    def describe(self) -> str:
        return f"PhaseThreshold(v_th={self.v_th}, period={self.period})"


class BurstThreshold(ThresholdDynamics):
    """Burst coding (the paper's proposal): per-neuron adaptive threshold.

    After a spike the burst function grows by the burst constant ``β > 1``
    (``g ← β·g``), so an immediately following spike carries a larger
    amplitude; as soon as the neuron stays silent for one step the function
    resets to 1 (Eq. 8).  ``V_th(t) = g(t)·v_th`` (Eq. 9) and the effective
    synaptic weight during a burst is ``ŵ = w·g`` (Eq. 10).

    The per-step state (``g`` and the threshold buffer ``g·v_th``; with
    ``max_burst_length``, the consecutive-spike counter and its scratch) is
    allocated at ``reset`` and updated in place by :meth:`fire`, one
    ``ops.burst_if_step`` call per step that allocates nothing.

    Parameters
    ----------
    v_th:
        Base threshold; smaller values mean finer transmission precision but
        more spikes (the trade-off of Fig. 2 / Table 2).
    beta:
        Burst constant (> 1); the paper uses 2.
    max_burst_length:
        Optional cap on consecutive burst spikes: after this many consecutive
        spikes the burst function stops growing.  ``None`` (default) matches
        the paper, which reports bursts of length > 5.
    """

    coding = "burst"

    def __init__(
        self,
        v_th: float = 0.125,
        beta: float = 2.0,
        max_burst_length: Optional[int] = None,
    ) -> None:
        validate_positive("v_th", v_th)
        if beta <= 1.0:
            raise ValueError(
                f"beta must be > 1 (burst spikes potentiate the synapse), got {beta}"
            )
        if max_burst_length is not None and max_burst_length < 1:
            raise ValueError(f"max_burst_length must be >= 1, got {max_burst_length}")
        self.v_th = float(v_th)
        self.beta = float(beta)
        self.max_burst_length = max_burst_length
        self._g: Optional[np.ndarray] = None
        self._th_buf: Optional[np.ndarray] = None
        #: the growth cap's buffers (:data:`~repro.backends.numpy_backend.BurstCap`),
        #: allocated only when ``max_burst_length`` is set
        self._cap = None

    def reset(
        self, shape: Tuple[int, ...], dtype: DTypeLike = None, backend=None
    ) -> None:
        super().reset(shape, dtype, backend)
        shape = tuple(shape)
        if (
            self._g is not None
            and self._g.shape == shape
            and self._g.dtype == self._dtype
        ):
            # reuse the allocated buffers across simulation runs
            self._g.fill(1.0)
        else:
            ops = self.ops
            self._g = ops.fill(ops.empty(shape, self._dtype), 1.0)
            self._th_buf = ops.empty(shape, self._dtype)
        np.multiply(self._g, self.v_th, out=self._th_buf)
        self._cap = self._build_cap(shape)
        self._ceiling = np.finfo(self._dtype).max
        # g is bounded by β^updates (it resets to 1 on any silent step), so
        # the overflow clamp is provably the identity until β^(updates+1)
        # could reach the ceiling — skip the pass until then (bit-exact)
        self._updates = 0
        self._clamp_after = max(0, int(np.log(self._ceiling) / np.log(self.beta)) - 2)
        # silent-step short-circuit: after a fully silent step g is all ones,
        # and while the layer stays silent the burst update is the identity
        # — key to cheap converged/sparse regimes
        self._g_uniform = True

    def _build_cap(
        self, shape: Tuple[int, ...], consecutive: Optional[np.ndarray] = None
    ):
        """The cap's counter (zeroed unless given) and scratch buffers, or
        ``None`` without a cap."""
        if self.max_burst_length is None:
            return None
        ops = self.ops
        if consecutive is None:
            consecutive = ops.zeros(shape, np.dtype(np.int64))
        return (
            consecutive,
            ops.empty(shape, np.dtype(np.int64)),
            ops.empty(shape, np.dtype(bool)),
            self.max_burst_length,
        )

    def shrink_batch(self, keep: np.ndarray) -> None:
        super().shrink_batch(keep)
        if self._g is None:
            return
        keep = np.asarray(keep, dtype=np.intp)
        self._g = np.ascontiguousarray(self._g[keep])
        self._th_buf = np.ascontiguousarray(self._th_buf[keep])
        if self._cap is not None:
            self._cap = self._build_cap(
                self._g.shape, np.ascontiguousarray(self._cap[0][keep])
            )

    def thresholds(self, t: int) -> np.ndarray:
        del t
        if self._th_buf is None:
            raise RuntimeError("BurstThreshold.reset(shape) must be called before use")
        return self._th_buf

    def positive_by_construction(self) -> bool:
        # g starts at 1 and only ever grows by β > 1 or resets to 1, and
        # rounding is monotonic, so g·v_th ≥ v_th in the simulation dtype
        return bool(np.asarray(self.v_th, dtype=self.dtype) > 0)

    def _next_update_args(self) -> tuple:
        """The burst-update arguments for the step about to run
        (``g, beta, v_th, ceiling, g_uniform, cap``); counts that step."""
        # Clamp to the largest finite value: an extreme burst can overflow
        # g·β to inf, and the mask-free combine of the update would then
        # produce inf·0 = NaN on the first silent step and poison g
        # permanently.  A neuron at the ceiling behaves like one at inf (the
        # threshold is unreachable, so it falls silent and resets to 1 next
        # step).  While β^(updates+1) provably cannot reach the ceiling the
        # clamp is the identity and the pass is skipped.
        ceiling = self._ceiling if self._updates >= self._clamp_after else None
        self._updates += 1
        return (self._g, self.beta, self.v_th, ceiling, self._g_uniform, self._cap)

    def fire(self, state, z: np.ndarray, t: int) -> Tuple[np.ndarray, np.ndarray]:
        """One ``ops.burst_if_step`` call: integrate, fire and reset
        against ``g·v_th``, then update ``g`` and the thresholds in place."""
        if self._th_buf is None:
            raise RuntimeError("BurstThreshold.reset(shape) must be called before use")
        result = state.step(z, self._th_buf, burst=self._next_update_args())
        self._g_uniform = state.last_spike_count == 0
        return result

    def update(
        self,
        spikes: np.ndarray,
        spike_signals: Optional[np.ndarray] = None,
        spike_count: Optional[int] = None,
    ) -> None:
        """The burst update on its own, for callers that run the neurons
        themselves (the engine goes through :meth:`fire`); the same kernel
        code as the fused step."""
        if self._g is None:
            raise RuntimeError("BurstThreshold.reset(shape) must be called before use")
        spikes = np.asarray(spikes, dtype=bool)
        if spike_signals is None or spike_signals.dtype != self._dtype:
            spike_signals = spikes.astype(self._dtype)
        if spike_count is None:
            spike_count = int(np.count_nonzero(spikes))
        burst_update(spikes, spike_signals, spike_count, self._th_buf, *self._next_update_args())
        self._g_uniform = spike_count == 0

    @property
    def burst_function(self) -> np.ndarray:
        """Current value of ``g`` per neuron (for tests and analysis)."""
        if self._g is None:
            raise RuntimeError("BurstThreshold.reset(shape) must be called before use")
        return self._g.copy()

    def describe(self) -> str:
        return (
            f"BurstThreshold(v_th={self.v_th}, beta={self.beta}, "
            f"max_burst_length={self.max_burst_length})"
        )


def make_threshold(
    coding: str,
    v_th: Optional[float] = None,
    beta: float = 2.0,
    phase_period: int = 8,
    max_burst_length: Optional[int] = None,
) -> ThresholdDynamics:
    """Build the threshold dynamics for a hidden-layer coding scheme by name.

    Resolution goes through the scheme registry
    (:mod:`repro.core.registry`), so registered hidden codings work here
    without this function enumerating them.

    Parameters
    ----------
    coding:
        ``"rate"``, ``"phase"``, ``"burst"`` or any registered hidden coding.
    v_th:
        Base threshold; defaults to the coding's registered default (1.0 for
        rate/phase, 0.125 for burst — the paper's main configuration).
    beta, phase_period, max_burst_length:
        Scheme-specific parameters (ignored by the schemes that do not use
        them).
    """
    from repro.core.coding import CodingParams
    from repro.core.registry import build_threshold

    params = CodingParams(
        v_th=v_th, beta=beta, phase_period=phase_period, max_burst_length=max_burst_length
    )
    return build_threshold(coding, params=params)


# -- registry wiring ---------------------------------------------------------
# Placed after the dynamics classes so this module stays importable while
# ``repro.core`` is still initialising (the registry module itself is
# runtime-import-free).  Factories receive a CodingParams whose ``v_th`` has
# been resolved against ``default_v_th``.
from repro.core.registry import register_threshold  # noqa: E402


@register_threshold(
    "rate",
    default_v_th=1.0,
    description="constant threshold (Diehl et al. rate coding)",
)
def _build_constant_threshold(params) -> ThresholdDynamics:
    return ConstantThreshold(v_th=params.v_th)


@register_threshold(
    "phase",
    default_v_th=1.0,
    description="globally oscillating threshold, period k (Kim et al. phase coding)",
)
def _build_phase_threshold(params) -> ThresholdDynamics:
    return PhaseThreshold(v_th=params.v_th, period=params.phase_period)


@register_threshold(
    "burst",
    default_v_th=0.125,
    description="per-neuron adaptive burst threshold g(t)·v_th (this paper)",
)
def _build_burst_threshold(params) -> ThresholdDynamics:
    return BurstThreshold(
        v_th=params.v_th, beta=params.beta, max_burst_length=params.max_burst_length
    )
