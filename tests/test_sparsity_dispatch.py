"""Empty-step dispatch tests.

Every dense, conv and pooling layer owns a
:class:`~repro.utils.sparsity.SparsityDispatcher` with one policy for every
dtype: an all-zero step takes the layer's precomputed response, anything
else runs the dense kernel.  These tests pin down:

* the policy and its decision counters, hinted and scanned;
* exactness — the empty shortcut equals pushing the zeros through the dense
  kernel bit for bit, for ``SpikingDense``, ``SpikingConv2D`` and both
  pooling layers in float32 and float64;
* that no step or reset reads the clock to pick a kernel.
"""

import time

import numpy as np
import pytest

from repro.backends import resolve_backend
from repro.snn.layers import (
    SpikingAvgPool2D,
    SpikingConv2D,
    SpikingDense,
    SpikingMaxPool2D,
)
from repro.snn.thresholds import BurstThreshold
from repro.utils import sparsity
from repro.utils.sparsity import SparsityDispatcher

DTYPES = ["float32", "float64"]


class TestDispatcherPolicy:
    def test_empty_is_always_taken(self):
        """Every dtype, every layer: empty when all zero, dense otherwise."""
        ops = resolve_backend(None)
        dispatcher = SparsityDispatcher("layer")
        assert dispatcher.choose(ops, np.zeros(8)) == sparsity.EMPTY
        assert dispatcher.choose(ops, np.array([0.0, 0.125, 0.0])) == sparsity.DENSE

    def test_hint_decides_without_scanning(self):
        class NoScan:
            def count_nonzero(self, x):
                raise AssertionError("a hinted step must not scan its input")

        dispatcher = SparsityDispatcher("layer")
        # the hint is trusted: it is the producer's exact count
        assert dispatcher.choose(NoScan(), np.ones(4), nonzero=0) == sparsity.EMPTY
        assert dispatcher.choose(NoScan(), np.zeros(4), nonzero=3) == sparsity.DENSE

    def test_decision_counters(self):
        ops = resolve_backend(None)
        dispatcher = SparsityDispatcher("layer")
        for frame in (np.zeros(4), np.ones(4), np.ones(4)):
            dispatcher.choose(ops, frame)
        assert dispatcher.decisions == {"dense": 2, "empty": 1}
        dispatcher.reset()
        assert dispatcher.decisions == {"dense": 0, "empty": 0}


def _fresh_dense(dtype, batch=6, rng_seed=3):
    rng = np.random.default_rng(rng_seed)
    layer = SpikingDense(
        rng.normal(scale=0.2, size=(40, 12)),
        rng.normal(scale=0.05, size=12),
        BurstThreshold(v_th=0.125),
    )
    layer.reset(batch, dtype=dtype)
    return layer


def _fresh_conv(dtype, batch=4, rng_seed=5):
    rng = np.random.default_rng(rng_seed)
    layer = SpikingConv2D(
        rng.normal(scale=0.2, size=(6, 8, 3, 3)),
        rng.normal(scale=0.05, size=6),
        BurstThreshold(v_th=0.125),
        padding=1,
        input_shape=(8, 10, 10),
    )
    layer.reset(batch, dtype=dtype)
    return layer


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize(
    "factory, shape",
    [(_fresh_dense, (6, 40)), (_fresh_conv, (4, 8, 10, 10))],
    ids=["dense", "conv"],
)
class TestSynapticEmptyStep:
    def test_empty_step_equals_dense(self, dtype, factory, shape):
        """The bias response an empty step returns is exactly what the dense
        kernel computes for an all-zero input."""
        zeros = np.zeros(shape, dtype=dtype)
        layer = factory(dtype)
        shortcut = np.array(layer._synaptic_input(zeros))
        dense = np.array(factory(dtype)._dense_input(zeros))
        assert np.array_equal(shortcut, dense)
        assert layer.dispatcher.decisions == {"dense": 0, "empty": 1}

    def test_nonzero_step_runs_dense(self, dtype, factory, shape):
        """One policy for every dtype: any spike at all runs the dense
        kernel, with the same bits as calling it directly."""
        x = np.zeros(shape, dtype=dtype)
        x.reshape(-1)[7] = 0.125
        layer = factory(dtype)
        dispatched = np.array(layer._synaptic_input(x))
        dense = np.array(factory(dtype)._dense_input(x))
        assert np.array_equal(dispatched, dense)
        assert layer.dispatcher.decisions == {"dense": 1, "empty": 0}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("pool_cls", [SpikingAvgPool2D, SpikingMaxPool2D])
class TestPoolingEquivalence:
    def test_empty_and_full_steps_match_dense(self, dtype, pool_cls):
        """The pools' empty-step shortcut is exact: interleaving empty steps
        produces bit-identical outputs to pushing the zeros through the full
        pooling path (a dispatcher that always answers dense)."""
        rng = np.random.default_rng(41)
        x = np.asarray((rng.random((3, 4, 8, 8)) < 0.5) * 0.125, dtype=dtype)
        zeros = np.zeros_like(x)
        shortcut = pool_cls(2)
        dense = pool_cls(2)
        shortcut.reset(3, dtype=dtype)
        dense.reset(3, dtype=dtype)
        dense.dispatcher.choose = lambda ops, incoming, nonzero=None: sparsity.DENSE
        for t, frame in enumerate([x, zeros, x, zeros]):
            out_shortcut = np.array(shortcut.step(frame, t))
            out_dense = np.array(dense.step(frame, t))
            assert np.array_equal(out_shortcut, out_dense)
        assert shortcut.dispatcher.decisions == {"dense": 2, "empty": 2}

    def test_hinted_count_matches_scan(self, dtype, pool_cls):
        """Passing the producer's exact nonzero count must not change results."""
        rng = np.random.default_rng(42)
        x = np.asarray((rng.random((2, 4, 8, 8)) < 0.3) * 0.125, dtype=dtype)
        hinted = pool_cls(2)
        scanned = pool_cls(2)
        hinted.reset(2, dtype=dtype)
        scanned.reset(2, dtype=dtype)
        count = int(np.count_nonzero(x))
        for t, frame in enumerate([x, np.zeros_like(x)]):
            frame_count = count if t == 0 else 0
            out_hinted = np.array(hinted.step(frame, t, incoming_nonzero=frame_count))
            out_scanned = np.array(scanned.step(frame, t))
            assert np.array_equal(out_hinted, out_scanned)


def test_no_timer_picks_the_kernel(monkeypatch):
    """Resetting and stepping float32 dense and conv layers of a geometry no
    other test uses must not read the clock: dispatch is empty-or-dense."""

    def no_clock():
        raise AssertionError("layer dispatch read the clock")

    monkeypatch.setattr(time, "perf_counter", no_clock)
    rng = np.random.default_rng(51)
    dense = SpikingDense(
        rng.normal(scale=0.2, size=(37, 11)),
        rng.normal(scale=0.05, size=11),
        BurstThreshold(v_th=0.125),
    )
    conv = SpikingConv2D(
        rng.normal(scale=0.2, size=(5, 6, 3, 3)),
        rng.normal(scale=0.05, size=5),
        BurstThreshold(v_th=0.125),
        padding=1,
        input_shape=(6, 9, 7),
    )
    for layer, shape in ((dense, (5, 37)), (conv, (5, 6, 9, 7))):
        layer.reset(5, dtype="float32")
        x = np.asarray((rng.random(shape) < 0.05) * 0.125, dtype="float32")
        for t, frame in enumerate([x, np.zeros_like(x), x]):
            layer.step(frame, t)
        assert layer.dispatcher.decisions == {"dense": 2, "empty": 1}
