"""The numpy backend's reference guarantees and the per-step seam contract.

* **reference bit-identity** — the explicitly named numpy backend is bit for
  bit the engine default, in both dtypes, so the seed golden reference
  (``benchmarks/perf/seed_reference.json``, enforced by
  ``tests/test_dtype_policy.py``) pins its float64 outputs;
* the **seam contract** — per layer type × threshold dynamics, one ``step``
  calls exactly the expected multiset of kernel primitives, counted by
  :class:`~repro.backends.instrument.InstrumentedBackend`.
"""

import numpy as np
import pytest

from repro.backends import InstrumentedBackend, resolve_backend
from repro.conversion.converter import convert_to_snn
from repro.core.hybrid import HybridCodingScheme
from repro.snn.network import SimulationConfig

PARITY_DTYPES = ("float32", "float64")


@pytest.fixture(scope="module")
def parity_snn_factory(trained_cnn, tiny_color_split):
    """Build a converted SNN for a scheme (shared weights via the fixture)."""

    def build(notation: str):
        scheme = HybridCodingScheme.from_notation(notation, v_th=0.125)
        return convert_to_snn(
            trained_cnn,
            encoder=scheme.make_encoder(seed=0),
            threshold_factory=scheme.make_threshold_factory(),
            calibration_x=tiny_color_split.train.x[:24],
        )

    return build


class TestNumpyReferenceBitIdentity:
    """The explicitly resolved numpy backend IS the engine default, bit for bit.

    Together with ``tests/test_dtype_policy.py`` (which pins the default
    engine's float64 outputs to ``benchmarks/perf/seed_reference.json``),
    this keeps the numpy backend's float64 output bit-identical to the seed.
    """

    @pytest.mark.parametrize("dtype", PARITY_DTYPES)
    def test_explicit_numpy_equals_default(self, parity_snn_factory, tiny_color_split, dtype):
        x = tiny_color_split.test.x[:6]
        snn = parity_snn_factory("phase-burst")
        default = snn.run(x, SimulationConfig(time_steps=40, dtype=dtype))
        explicit = snn.run(x, SimulationConfig(time_steps=40, dtype=dtype, backend="numpy"))
        assert np.array_equal(default.output_history, explicit.output_history)
        assert default.total_spikes() == explicit.total_spikes()

    def test_numpy_float64_runs_are_bit_deterministic(self, parity_snn_factory, tiny_color_split):
        x = tiny_color_split.test.x[:6]
        snn = parity_snn_factory("real-burst")
        config = SimulationConfig(time_steps=40, dtype="float64", backend="numpy")
        a = snn.run(x, config)
        b = snn.run(x, config)
        assert np.array_equal(a.output_history, b.output_history)


def _threshold(coding: str):
    from repro.snn.thresholds import BurstThreshold, ConstantThreshold, PhaseThreshold

    return {
        "rate": lambda: ConstantThreshold(v_th=0.125),
        "phase": lambda: PhaseThreshold(v_th=0.125),
        "burst": lambda: BurstThreshold(v_th=0.125),
    }[coding]()


def _neuron_layer(kind: str, coding: str, bias: bool = True):
    """A dense or conv layer whose all-positive weights make every neuron
    fire on an all-ones input, so each step takes the spiking branch."""
    from repro.snn.layers import SpikingConv2D, SpikingDense

    if kind == "dense":
        layer = SpikingDense(
            np.full((16, 8), 0.1), np.full(8, 0.01) if bias else None,
            _threshold(coding), name="dense",
        )
        return layer, np.ones((2, 16))
    layer = SpikingConv2D(
        np.full((4, 3, 3, 3), 0.1), np.full(4, 0.01) if bias else None,
        _threshold(coding), padding=1, input_shape=(3, 6, 6), name="conv",
    )
    return layer, np.ones((2, 3, 6, 6))


#: the neuron-update primitive per threshold dynamics: rate and phase run
#: the scalar-threshold IF update; burst coding runs the IF update and the
#: burst function's update of g and g·v_th in one fused call
NEURON_CALL = {"rate": "if_step", "phase": "if_step", "burst": "burst_if_step"}


class TestStepSeamContract:
    """Each layer's ``step`` is its only step path: one step on an
    ``InstrumentedBackend`` calls exactly the expected multiset of backend
    primitives (float64, with the exact nonzero hint the engine forwards)."""

    @staticmethod
    def _counted_step(layer, x, hint, dtype="float64", warm_steps=1):
        """Counts of one step after ``warm_steps`` uncounted ones (the first
        step builds lazy conv/pool plans)."""
        backend = InstrumentedBackend(resolve_backend())
        layer.reset(x.shape[0], dtype=dtype, backend=backend)
        x = np.asarray(x, dtype=dtype)
        for t in range(warm_steps):
            layer.step(x, t, hint)
        backend.recorder.reset()
        layer.step(x, warm_steps, hint)
        return dict(backend.recorder.counts)

    @pytest.mark.parametrize("coding", ["rate", "phase", "burst"])
    @pytest.mark.parametrize("kind", ["dense", "conv"])
    def test_spiking_step(self, kind, coding):
        layer, x = _neuron_layer(kind, coding)
        counts = self._counted_step(layer, x, hint=x.size)
        assert layer.output_nonzero == layer.num_neurons * x.shape[0]
        # GEMM, bias injection, then one neuron update
        assert counts == {"matmul": 1, "add_inplace": 1, NEURON_CALL[coding]: 1}

    @pytest.mark.parametrize("coding", ["rate", "phase", "burst"])
    @pytest.mark.parametrize("kind", ["dense", "conv"])
    def test_empty_step_skips_the_gemm(self, kind, coding):
        layer, x = _neuron_layer(kind, coding, bias=False)
        counts = self._counted_step(layer, np.zeros_like(x), hint=0, warm_steps=0)
        assert layer.output_nonzero == 0
        assert counts == {NEURON_CALL[coding]: 1}
        if coding == "burst":
            # a silent step over an all-ones g leaves the burst function and
            # the thresholds at their reset values
            assert np.all(layer.threshold.burst_function == 1.0)
            after = layer.threshold.thresholds(1)
            assert np.array_equal(after, np.full(after.shape, 0.125))

    @pytest.mark.parametrize("kind", ["dense", "conv"])
    def test_unhinted_step_scans_activity(self, kind):
        layer, x = _neuron_layer(kind, "rate")
        counts = self._counted_step(layer, x, hint=None)
        assert counts == {"count_nonzero": 1, "matmul": 1, "add_inplace": 1, "if_step": 1}

    def test_pooling_flatten_and_output_steps(self):
        from repro.snn.layers import (
            OutputAccumulator,
            SpikingAvgPool2D,
            SpikingFlatten,
            SpikingMaxPool2D,
        )

        x = np.full((2, 3, 4, 4), 0.125)
        assert self._counted_step(SpikingAvgPool2D(2), x, hint=x.size) == {"avgpool2x2": 1}
        assert self._counted_step(SpikingAvgPool2D(2), x, hint=None) == {
            "count_nonzero": 1, "avgpool2x2": 1,
        }
        assert self._counted_step(SpikingMaxPool2D(2), x, hint=x.size) == {
            "add_inplace": 1, "argmax_columns": 1, "take_flat": 1,
        }
        zeros = np.zeros_like(x)
        assert self._counted_step(SpikingAvgPool2D(2), zeros, hint=0) == {"fill": 1}
        assert self._counted_step(SpikingMaxPool2D(2), zeros, hint=0) == {"fill": 1}
        assert self._counted_step(SpikingFlatten(), x, hint=x.size) == {}
        output = OutputAccumulator(np.full((8, 3), 0.1), np.zeros(3))
        assert self._counted_step(output, np.ones((2, 8)), hint=16) == {
            "matmul": 1, "add_inplace": 2,
        }
