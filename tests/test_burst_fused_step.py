"""The fused burst-neuron step equals the split reference bit for bit.

A burst-coded layer runs each step as one ``ops.burst_if_step`` call
(:meth:`~repro.snn.thresholds.BurstThreshold.fire`): integrate, fire and
reset against ``g·v_th``, then update the burst function ``g`` and the
thresholds in place.  These tests drive the same neurons three ways over
60 steps of random drive with silent stretches, in both dtypes:

* **fused** — ``threshold.fire(state, z, t)``;
* **split** — ``threshold.thresholds(t)``, ``IFNeuronState.step`` and
  ``threshold.update(spikes, signals, count)`` (and ``update(spikes)`` alone,
  as the analysis code calls it);
* **reference** — Eqs. 1–4 and 8–9 written out in plain numpy, with
  ``g ← spike ? min(g·β, ceiling) : 1`` as a select,

and require identical spikes, amplitudes, membranes, burst functions and
thresholds at every step.
"""

import numpy as np
import pytest

from repro.snn.encoding import BurstEncoder
from repro.snn.neurons import IFNeuronState, ResetMode
from repro.snn.thresholds import BurstThreshold

STEPS = 60
SHAPE = (4, 50)
DTYPES = ("float32", "float64")

#: name -> (BurstThreshold kwargs, IFNeuronState kwargs, near the ceiling)
CASES = {
    "subtract": (dict(), dict(), False),
    "reset-to-zero": (dict(), dict(reset_mode=ResetMode.ZERO), False),
    "non-negative-membrane": (dict(), dict(allow_negative_membrane=False), False),
    "max-burst-length-2": (dict(max_burst_length=2), dict(), False),
    "beta-1.5": (dict(beta=1.5), dict(), False),
    "clamp": (dict(), dict(reset_mode=ResetMode.ZERO), True),
}


def _near_ceiling(dtype, beta):
    """A burst function two spikes short of overflowing ``g·β``."""
    return np.finfo(dtype).max / beta**1.5


def _drive(dtype, near_ceiling, seed=0):
    """Random drive with two silent stretches (no input, then inhibition).
    In the clamp case, kicks at steps 0–2 make the neurons that start near
    the ceiling fire three times in a row, overflowing ``g·β`` on the second
    (reset to zero clears each kick, so they fall silent afterwards)."""
    rng = np.random.default_rng(seed)
    z = rng.random((STEPS,) + SHAPE) * 0.5 - 0.05
    z[15:25] = 0.0
    z[40:48] = -0.05
    z = z.astype(dtype)
    if near_ceiling:
        for t, share in enumerate((0.05, 0.1, 0.13)):
            z[t, :, ::3] += np.finfo(dtype).max * dtype.type(share)
    return z


def _start(threshold, near_ceiling, dtype):
    """In the clamp case, run the overflow clamp from the first update and
    start a third of the neurons near the ceiling."""
    if not near_ceiling:
        return
    threshold._clamp_after = 0
    g = threshold._g
    g[:, ::3] = _near_ceiling(dtype, threshold.beta)
    threshold._g_uniform = False
    np.multiply(g, threshold.v_th, out=threshold._th_buf)


def _neurons(case, dtype):
    th_kwargs, state_kwargs, near_ceiling = CASES[case]
    threshold = BurstThreshold(v_th=0.125, **th_kwargs)
    threshold.reset(SHAPE, dtype=dtype)
    state = IFNeuronState(SHAPE, dtype=dtype, **state_kwargs)
    state.reset(thresholds_positive=True)
    _start(threshold, near_ceiling, dtype)
    return threshold, state


def _record(trace, spikes, amplitudes, state, threshold):
    trace.append(
        (
            spikes.copy(),
            amplitudes.copy(),
            state.membrane_copy(),
            threshold.burst_function,
            np.array(threshold.thresholds(0)),
        )
    )


def _fused(case, dtype, z):
    threshold, state = _neurons(case, dtype)
    trace = []
    for t in range(STEPS):
        spikes, amplitudes = threshold.fire(state, z[t], t)
        _record(trace, spikes, amplitudes, state, threshold)
    return trace


def _split(case, dtype, z, with_signals=True):
    threshold, state = _neurons(case, dtype)
    trace = []
    for t in range(STEPS):
        spikes, amplitudes = state.step(z[t], threshold.thresholds(t))
        if with_signals:
            threshold.update(spikes, state.spike_signals, state.last_spike_count)
        else:
            threshold.update(spikes)
        _record(trace, spikes, amplitudes, state, threshold)
    return trace


def _reference(case, dtype, z):
    """Eqs. 1–4 and 8–9 in plain numpy, allocating freely."""
    th_kwargs, state_kwargs, near_ceiling = CASES[case]
    dtype = np.dtype(dtype)
    beta = th_kwargs.get("beta", 2.0)
    cap = th_kwargs.get("max_burst_length")
    subtract = state_kwargs.get("reset_mode", ResetMode.SUBTRACT) is ResetMode.SUBTRACT
    allow_negative = state_kwargs.get("allow_negative_membrane", True)
    ceiling = np.finfo(dtype).max
    v = np.zeros(SHAPE, dtype=dtype)
    g = np.ones(SHAPE, dtype=dtype)
    if near_ceiling:
        g[:, ::3] = _near_ceiling(dtype, beta)
    consecutive = np.zeros(SHAPE, dtype=np.int64)
    trace = []
    for t in range(STEPS):
        threshold = g * 0.125
        v = v + z[t]
        spikes = v >= threshold
        amplitudes = threshold * spikes.astype(dtype)
        if subtract:
            v = v - amplitudes
        else:
            v = np.where(spikes, dtype.type(0.0), v)
        if not allow_negative:
            v = np.maximum(v, dtype.type(0.0))
        grown = np.minimum(g * beta, ceiling)
        if cap is not None:
            grown = np.where(consecutive + 1 >= cap, g, grown)
            consecutive = (consecutive + 1) * spikes
        g = np.where(spikes, grown, dtype.type(1.0))
        trace.append((spikes, amplitudes, v, g, g * 0.125))
    return trace


def _assert_same(actual, expected):
    assert len(actual) == len(expected) == STEPS
    for t, (got, want) in enumerate(zip(actual, expected)):
        for name, a, b in zip(("spikes", "amplitudes", "membrane", "g", "thresholds"), got, want):
            assert a.dtype == b.dtype, (t, name)
            assert np.array_equal(a, b), f"step {t}: {name} differs"


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_step_equals_split_and_reference(case, dtype):
    z = _drive(np.dtype(dtype), CASES[case][2])
    fused = _fused(case, dtype, z)
    _assert_same(fused, _split(case, dtype, z))
    _assert_same(fused, _split(case, dtype, z, with_signals=False))
    _assert_same(fused, _reference(case, dtype, z))
    spikes = np.array([step[0].sum() for step in fused])
    # the drive fires neurons, bursts (g > 1) and falls fully silent
    assert spikes.max() > 0 and (spikes == 0).any()
    assert max(step[3].max() for step in fused) > 1.0
    if CASES[case][2]:
        # the clamp held g at the largest finite value
        assert max(step[3].max() for step in fused) == np.finfo(dtype).max


@pytest.mark.parametrize("dtype", DTYPES)
def test_burst_encoder_equals_split_step(dtype):
    x = np.random.default_rng(1).random((3, 1, 6, 6))
    encoder = BurstEncoder(v_th=0.125, beta=2.0)
    encoder.reset(x, dtype=dtype)
    threshold = BurstThreshold(v_th=0.125, beta=2.0)
    threshold.reset(x.shape, dtype=dtype)
    state = IFNeuronState(x.shape, dtype=dtype)
    drive = np.asarray(x, dtype=dtype)
    for t in range(STEPS):
        step = encoder.step(t)
        spikes, amplitudes = state.step(drive, threshold.thresholds(t))
        threshold.update(spikes, state.spike_signals, state.last_spike_count)
        assert np.array_equal(step.spikes, spikes)
        assert np.array_equal(step.values, amplitudes)
        assert np.array_equal(encoder.threshold.burst_function, threshold.burst_function)
    assert threshold.burst_function.max() > 1.0
