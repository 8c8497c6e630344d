"""Sparsity dispatcher and sparse/dense kernel-equivalence tests.

The propagation engine (see :mod:`repro.utils.sparsity`) gives every synaptic
layer a dense and a sparse kernel plus a measured-activity dispatcher.  These
tests pin down:

* the dispatcher policy — empty shortcut, exactness gating in float64,
  forced modes, calibration clamping;
* kernel equivalence — sparse vs dense propagation agree for
  ``SpikingDense``, ``SpikingConv2D`` and both pooling layers across
  float32/float64, empty-spike steps, partial activity and full activity
  (forcing both dispatcher branches).
"""

import numpy as np
import pytest

from repro.snn.layers import (
    SpikingAvgPool2D,
    SpikingConv2D,
    SpikingDense,
    SpikingMaxPool2D,
)
from repro.snn.thresholds import BurstThreshold
from repro.utils import sparsity
from repro.utils.sparsity import (
    SparsityDispatcher,
    calibrated_crossover,
    clear_calibration_cache,
    nonzero_fraction,
)

DTYPES = ["float32", "float64"]
#: activity levels: empty-spike step, sparse step, full-activity step
ACTIVITIES = [0.0, 0.3, 1.0]


def _tolerance(dtype: str) -> dict:
    return {"rtol": 1e-5, "atol": 1e-6} if dtype == "float32" else {"rtol": 1e-11, "atol": 1e-12}


def _structured_conv_input(rng, batch, shape, activity, dtype):
    """Channel-structured spikes: ``activity`` fraction of channels fire."""
    c = shape[0]
    x = np.zeros((batch,) + shape, dtype=dtype)
    if activity > 0.0:
        count = max(1, int(round(activity * c)))
        channels = rng.choice(c, size=count, replace=False)
        plane = (batch, count) + shape[1:]
        x[:, channels] = np.asarray((rng.random(plane) < 0.6) * 0.125, dtype=dtype)
        x[0, channels[0], 0, 0] = dtype_amp(dtype)  # guarantee at least one spike
    return x


def dtype_amp(dtype: str):
    return np.dtype(dtype).type(0.125)


def _structured_dense_input(rng, batch, features, activity, dtype):
    x = np.zeros((batch, features), dtype=dtype)
    if activity > 0.0:
        count = max(1, int(round(activity * features)))
        chosen = rng.choice(features, size=count, replace=False)
        x[:, chosen] = np.asarray((rng.random((batch, count)) < 0.6) * 0.125, dtype=dtype)
        x[0, chosen[0]] = dtype_amp(dtype)
    return x


class TestDispatcherPolicy:
    def test_empty_is_always_taken(self):
        for exact_only in (False, True):
            dispatcher = SparsityDispatcher("layer", exact_only=exact_only)
            assert dispatcher.choose(0.0) == sparsity.EMPTY

    def test_exact_only_never_goes_sparse(self):
        dispatcher = SparsityDispatcher("layer", exact_only=True, crossover=0.5)
        assert dispatcher.choose(0.1) == sparsity.DENSE
        assert dispatcher.choose(0.9) == sparsity.DENSE

    def test_crossover_dispatch(self):
        dispatcher = SparsityDispatcher("layer", crossover=0.25)
        assert dispatcher.choose(0.1) == sparsity.SPARSE
        assert dispatcher.choose(0.4) == sparsity.DENSE

    def test_sparse_unavailable_falls_back_dense(self):
        dispatcher = SparsityDispatcher("layer", crossover=0.25)
        assert dispatcher.choose(0.1, sparse_available=False) == sparsity.DENSE

    def test_forced_modes(self):
        dense = SparsityDispatcher("layer", force="dense")
        assert dense.choose(0.0) == sparsity.DENSE
        forced = SparsityDispatcher("layer", exact_only=True, force="sparse")
        assert forced.choose(0.9) == sparsity.SPARSE
        assert forced.choose(0.0) == sparsity.EMPTY

    def test_env_var_force(self, monkeypatch):
        # the environment is parsed once per reset, not on every step
        monkeypatch.setenv("REPRO_SPARSE_MODE", "sparse")
        dispatcher = SparsityDispatcher("layer", crossover=0.01)
        dispatcher.reset()
        assert dispatcher.choose(0.9) == sparsity.SPARSE
        monkeypatch.setenv("REPRO_SPARSE_MODE", "auto")
        assert dispatcher.choose(0.9) == sparsity.SPARSE
        dispatcher.reset()
        assert dispatcher.choose(0.9) == sparsity.DENSE
        monkeypatch.setenv("REPRO_SPARSE_MODE", "bogus")
        with pytest.raises(ValueError):
            dispatcher.reset()

    def test_decision_counters(self):
        dispatcher = SparsityDispatcher("layer", crossover=0.25)
        for fraction in (0.0, 0.1, 0.9):
            dispatcher.choose(fraction)
        assert dispatcher.decisions == {"dense": 1, "sparse": 1, "empty": 1}
        dispatcher.reset_counters()
        assert sum(dispatcher.decisions.values()) == 0

    def test_nonzero_fraction(self):
        assert nonzero_fraction(np.zeros(8)) == 0.0
        assert nonzero_fraction(np.ones(8)) == 1.0
        assert nonzero_fraction(np.array([0.0, 1.0, 0.0, 2.0])) == 0.5
        assert nonzero_fraction(np.zeros(0)) == 0.0

    def test_calibrated_crossover_clamped(self):
        make_input = lambda fraction: np.zeros(4)
        # sparse always slower -> clamps at the minimum
        low = calibrated_crossover(
            lambda x: None, lambda x: sum(range(2000)), make_input
        )
        assert low == pytest.approx(0.02)
        # sparse always faster -> clamps at the maximum
        high = calibrated_crossover(
            lambda x: sum(range(2000)), lambda x: None, make_input
        )
        assert high == pytest.approx(0.60)

    def test_calibration_cache_shared(self):
        clear_calibration_cache()
        calls = {"n": 0}

        def sparse_fn(x):
            calls["n"] += 1

        key = ("unit-test", 1, 2, 3)
        first = SparsityDispatcher("a")
        second = SparsityDispatcher("b")
        first.calibrate(key, lambda x: None, sparse_fn, lambda fraction: np.zeros(2))
        sparse_calls = calls["n"]
        second.calibrate(key, lambda x: None, sparse_fn, lambda fraction: np.zeros(2))
        assert calls["n"] == sparse_calls  # cache hit: no re-probe
        assert first.crossover == second.crossover
        clear_calibration_cache()


def _fresh_dense(dtype, force, batch=6, rng_seed=3):
    rng = np.random.default_rng(rng_seed)
    layer = SpikingDense(
        rng.normal(scale=0.2, size=(40, 12)),
        rng.normal(scale=0.05, size=12),
        BurstThreshold(v_th=0.125),
    )
    layer.reset(batch, dtype=dtype)
    layer.dispatcher.force = force
    return layer


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("activity", ACTIVITIES)
class TestDenseKernelEquivalence:
    def test_sparse_matches_dense(self, dtype, activity):
        rng = np.random.default_rng(11)
        x = _structured_dense_input(rng, 6, 40, activity, dtype)
        dense = _fresh_dense(dtype, "dense")
        sparse = _fresh_dense(dtype, "sparse")
        z_dense = np.array(dense._synaptic_input(x))
        z_sparse = np.array(sparse._synaptic_input(x))
        if activity in (0.0, 1.0):
            # empty: both reduce to the bias response; full: the gather is the
            # identity, so the very same GEMM runs — exact in both dtypes
            assert np.array_equal(z_dense, z_sparse)
        else:
            assert np.allclose(z_dense, z_sparse, **_tolerance(dtype))
        assert sparse.dispatcher.decisions[
            sparsity.EMPTY if activity == 0.0 else sparsity.SPARSE
        ] == 1

    def test_step_outputs_agree(self, dtype, activity):
        rng = np.random.default_rng(12)
        x = _structured_dense_input(rng, 6, 40, activity, dtype)
        dense = _fresh_dense(dtype, "dense")
        sparse = _fresh_dense(dtype, "sparse")
        out_dense = np.array(dense.step(x, 0))
        out_sparse = np.array(sparse.step(x, 0))
        assert np.allclose(out_dense, out_sparse, **_tolerance(dtype))
        assert np.array_equal(dense.last_spikes, sparse.last_spikes)


def _fresh_conv(dtype, force, batch=4, rng_seed=5):
    rng = np.random.default_rng(rng_seed)
    layer = SpikingConv2D(
        rng.normal(scale=0.2, size=(6, 8, 3, 3)),
        rng.normal(scale=0.05, size=6),
        BurstThreshold(v_th=0.125),
        padding=1,
        input_shape=(8, 10, 10),
    )
    layer.reset(batch, dtype=dtype)
    layer.dispatcher.force = force
    return layer


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("activity", ACTIVITIES)
class TestConvKernelEquivalence:
    def test_sparse_matches_dense(self, dtype, activity):
        rng = np.random.default_rng(21)
        x = _structured_conv_input(rng, 4, (8, 10, 10), activity, dtype)
        dense = _fresh_conv(dtype, "dense")
        sparse = _fresh_conv(dtype, "sparse")
        z_dense = np.array(dense._synaptic_input(x))
        z_sparse = np.array(sparse._synaptic_input(x))
        if activity == 0.0:
            assert np.array_equal(z_dense, z_sparse)
        else:
            assert np.allclose(z_dense, z_sparse, **_tolerance(dtype))
        assert sparse.dispatcher.decisions[
            sparsity.EMPTY if activity == 0.0 else sparsity.SPARSE
        ] == 1

    def test_sparse_matches_canonical(self, dtype, activity):
        """The packed direct path agrees with the canonical im2col GEMM."""
        rng = np.random.default_rng(22)
        x = _structured_conv_input(rng, 4, (8, 10, 10), activity, dtype)
        sparse = _fresh_conv(dtype, "sparse")
        z_sparse = np.array(sparse._synaptic_input(x))
        canonical = _fresh_conv(dtype, "dense")
        z_canonical = np.array(canonical._canonical_input(x))
        assert np.allclose(z_sparse, z_canonical, **_tolerance(dtype))

    def test_step_outputs_agree(self, dtype, activity):
        rng = np.random.default_rng(23)
        x = _structured_conv_input(rng, 4, (8, 10, 10), activity, dtype)
        dense = _fresh_conv(dtype, "dense")
        sparse = _fresh_conv(dtype, "sparse")
        out_dense = np.array(dense.step(x, 0))
        out_sparse = np.array(sparse.step(x, 0))
        assert np.allclose(out_dense, out_sparse, **_tolerance(dtype))
        assert np.array_equal(dense.last_spikes, sparse.last_spikes)


def test_conv_float64_auto_mode_stays_canonical():
    """In float64 the automatic policy must not leave the exact dense path
    (only the provably exact empty shortcut is allowed)."""
    rng = np.random.default_rng(31)
    layer = _fresh_conv("float64", force=None)
    assert layer.dispatcher.exact_only
    x = _structured_conv_input(rng, 4, (8, 10, 10), 0.05, "float64")
    layer._synaptic_input(x)
    layer._synaptic_input(np.zeros_like(x))
    assert layer.dispatcher.decisions[sparsity.SPARSE] == 0
    assert layer.dispatcher.decisions[sparsity.DENSE] == 1
    assert layer.dispatcher.decisions[sparsity.EMPTY] == 1


def test_strided_conv_has_no_sparse_path():
    rng = np.random.default_rng(32)
    layer = SpikingConv2D(
        rng.normal(scale=0.2, size=(4, 3, 3, 3)),
        None,
        BurstThreshold(v_th=0.125),
        stride=2,
        padding=1,
        input_shape=(3, 9, 9),
    )
    layer.reset(2, dtype="float32")
    layer.dispatcher.force = "sparse"
    x = _structured_conv_input(rng, 2, (3, 9, 9), 0.3, "float32")
    layer._synaptic_input(x)  # forced sparse, but unavailable -> dense
    assert layer.dispatcher.decisions[sparsity.DENSE] == 1


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("pool_cls", [SpikingAvgPool2D, SpikingMaxPool2D])
class TestPoolingEquivalence:
    def test_empty_and_full_steps_match_dense(self, dtype, pool_cls):
        """The pools' empty-step shortcut is exact: interleaving empty steps
        produces bit-identical outputs to pushing the zeros through the full
        (forced-dense) pooling path."""
        rng = np.random.default_rng(41)
        x = np.asarray((rng.random((3, 4, 8, 8)) < 0.5) * 0.125, dtype=dtype)
        zeros = np.zeros_like(x)
        shortcut = pool_cls(2)
        dense = pool_cls(2)
        shortcut.reset(3, dtype=dtype)
        dense.reset(3, dtype=dtype)
        dense.dispatcher.force = "dense"
        for t, frame in enumerate([x, zeros, x, zeros]):
            out_shortcut = np.array(shortcut.step(frame, t))
            out_dense = np.array(dense.step(frame, t))
            assert np.array_equal(out_shortcut, out_dense)
        assert shortcut.dispatcher.decisions[sparsity.EMPTY] == 2
        assert dense.dispatcher.decisions[sparsity.EMPTY] == 0

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
