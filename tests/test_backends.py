"""Backend registry, resolution and cross-backend parity (golden suite).

Four layers of guarantees:

* the registry plumbing — registration, did-you-mean errors, env var /
  override / explicit-config resolution order, clean unavailability of
  optional backends (torch without PyTorch installed);
* the **parity matrix** — every *available* registered backend, across coding
  schemes × dtypes on a trained CNN workload, classifies identically to the
  numpy reference backend (spike counts within the engine's documented
  tolerance); unavailable backends are skipped, never failed;
* **reference bit-identity** — the numpy backend (resolved explicitly) is
  bit-for-bit the engine default, in both dtypes, so the seed golden
  reference (``benchmarks/perf/seed_reference.json``, enforced by
  ``tests/test_dtype_policy.py``) pins this backend's float64 outputs;
* the **seam contract** — per layer type × threshold dynamics, one ``step``
  calls exactly the expected multiset of backend primitives.
"""

import numpy as np
import pytest

from repro.backends import (
    BackendUnavailableError,
    UnknownBackendError,
    backend_metadata,
    backend_names,
    backend_scope,
    default_backend_name,
    get_backend,
    resolve_backend,
    set_default_backend,
)
from repro.backends.base import KernelBackend
from repro.conversion.converter import convert_to_snn
from repro.core.hybrid import HybridCodingScheme
from repro.snn.network import SimulationConfig

#: the schemes the parity matrix exercises: the paper's proposal (conv sparse
#: paths + burst dynamics) and the real-input variant (dense-heavy drive)
PARITY_SCHEMES = ("phase-burst", "real-burst")
PARITY_DTYPES = ("float32", "float64")


def _available_backends():
    return [row["backend"] for row in backend_metadata() if row["available"]]


def _unavailable_backends():
    return [row for row in backend_metadata() if not row["available"]]


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


class TestBackendRegistry:
    def test_numpy_backends_always_available(self):
        names = backend_names()
        assert "numpy" in names and "numpy-blocked" in names and "torch" in names
        available = _available_backends()
        assert "numpy" in available and "numpy-blocked" in available

    def test_resolution_is_cached_singleton(self):
        assert resolve_backend("numpy") is resolve_backend("numpy")
        assert isinstance(resolve_backend("numpy"), KernelBackend)

    def test_unknown_backend_did_you_mean(self):
        with pytest.raises(UnknownBackendError, match="did you mean 'numpy'"):
            resolve_backend("numpyy")

    def test_instance_passthrough(self):
        instance = resolve_backend("numpy")
        assert resolve_backend(instance) is instance

    def test_default_resolution_order(self, monkeypatch):
        # 4) project default
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend_name() == "numpy"
        # 3) environment variable
        monkeypatch.setenv("REPRO_BACKEND", "numpy-blocked")
        assert default_backend_name() == "numpy-blocked"
        assert resolve_backend().name == "numpy-blocked"
        # 2) process-wide override beats the env var
        try:
            set_default_backend("numpy")
            assert default_backend_name() == "numpy"
        finally:
            set_default_backend(None)
        # the context-manager form restores on exit
        with backend_scope("numpy") as backend:
            assert backend.name == "numpy"
            assert resolve_backend().name == "numpy"
        assert default_backend_name() == "numpy-blocked"

    def test_simulation_config_validates_backend(self):
        SimulationConfig(backend="numpy-blocked")
        SimulationConfig(backend=None)
        with pytest.raises(ValueError, match="did you mean"):
            SimulationConfig(backend="nmpy")

    def test_unavailable_backend_reports_cleanly(self):
        for row in _unavailable_backends():
            assert row["error"], f"{row['backend']} must explain its unavailability"
            with pytest.raises(BackendUnavailableError):
                get_backend(row["backend"])

    def test_metadata_lists_every_registration(self):
        rows = backend_metadata()
        assert [row["backend"] for row in rows] == backend_names()
        defaults = [row for row in rows if row["default"]]
        assert len(defaults) == 1 and defaults[0]["backend"] == "numpy"


class TestBackendParity:
    """Golden suite: prediction agreement across backends × schemes × dtypes."""

    @pytest.mark.parametrize("notation", PARITY_SCHEMES)
    @pytest.mark.parametrize("dtype", PARITY_DTYPES)
    def test_backends_agree_with_reference(
        self, parity_snn_factory, tiny_color_split, notation, dtype
    ):
        x = tiny_color_split.test.x[:8]
        config = SimulationConfig(time_steps=50, dtype=dtype, backend="numpy")
        snn = parity_snn_factory(notation)
        reference = snn.run(x, config)
        ref_predictions = reference.predictions()
        ref_spikes = reference.total_spikes()
        assert ref_spikes > 0
        for row in backend_metadata():
            if row["backend"] == "numpy":
                continue
            if not row["available"]:
                # graceful skip is part of the contract — record, don't fail
                continue
            result = snn.run(x, config.replace(backend=row["backend"]))
            assert np.array_equal(result.predictions(), ref_predictions), (
                f"{row['backend']} backend diverged from numpy predictions "
                f"({notation}, {dtype})"
            )
            spikes = result.total_spikes()
            assert abs(spikes - ref_spikes) <= max(5, 0.01 * ref_spikes), (
                f"{row['backend']} spike count drifted ({notation}, {dtype}): "
                f"{spikes} vs {ref_spikes}"
            )

    def test_unavailable_backend_is_skipped_not_run(self, parity_snn_factory, tiny_color_split):
        """Resolving an unavailable backend fails fast with a clean error."""
        rows = _unavailable_backends()
        if not rows:
            pytest.skip("every registered backend is available here")
        snn = parity_snn_factory("phase-burst")
        config = SimulationConfig(time_steps=5, backend=rows[0]["backend"])
        with pytest.raises(BackendUnavailableError):
            snn.run(tiny_color_split.test.x[:2], config)


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


class TestBlockedBackendKernels:
    def test_tiled_matmul_matches_monolithic(self):
        from repro.backends.blocked import BlockedNumpyBackend

        backend = BlockedNumpyBackend(min_rows=8, threads=1)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((100, 17)).astype(np.float32)
        b = rng.standard_normal((17, 23)).astype(np.float32)
        out = np.empty((100, 23), dtype=np.float32)
        backend.matmul(a, b, out)
        assert np.allclose(out, a @ b, rtol=1e-5, atol=1e-6)

    def test_threaded_tiling_matches_sequential(self):
        from repro.backends.blocked import BlockedNumpyBackend

        rng = np.random.default_rng(4)
        a = rng.standard_normal((64, 9)).astype(np.float64)
        b = rng.standard_normal((9, 5)).astype(np.float64)
        sequential = BlockedNumpyBackend(min_rows=8, threads=1)
        threaded = BlockedNumpyBackend(min_rows=8, threads=3)
        out_seq = np.empty((64, 5))
        out_thr = np.empty((64, 5))
        sequential.matmul(a, b, out_seq)
        threaded.matmul(a, b, out_thr)
        assert np.array_equal(out_seq, out_thr)

    def test_small_gemm_runs_unsplit(self):
        from repro.backends.blocked import BlockedNumpyBackend

        backend = BlockedNumpyBackend(min_rows=64, threads=1)
        a = np.ones((4, 3))
        b = np.ones((3, 2))
        out = np.empty((4, 2))
        backend.matmul(a, b, out)
        assert np.array_equal(out, a @ b)


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


#: the threshold dynamics' own primitives on a spiking step: burst coding
#: recomputes g·v_th, then grows and commits g; rate and phase call nothing
THRESHOLD_CALLS = {
    "rate": {},
    "phase": {},
    "burst": {"scale": 1, "burst_grow": 1, "burst_commit_signals": 1},
}


class TestStepSeamContract:
    """Each layer's ``step`` is its only step path: one step on an
    ``InstrumentedBackend`` calls exactly the expected multiset of backend
    primitives (float64, with the exact nonzero hint the engine forwards)."""

    @staticmethod
    def _counted_step(layer, x, hint, dtype="float64", warm_steps=1):
        """Counts of one step after ``warm_steps`` uncounted ones (the first
        step builds lazy conv/pool plans)."""
        from repro.backends.instrument import InstrumentedBackend

        backend = InstrumentedBackend(get_backend("numpy"))
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
        # GEMM, bias injection, the IF update, then the threshold dynamics
        expected = {"matmul": 1, "add_inplace": 1, "if_step": 1}
        expected.update(THRESHOLD_CALLS[coding])
        assert counts == expected

    @pytest.mark.parametrize("coding", ["rate", "phase", "burst"])
    @pytest.mark.parametrize("kind", ["dense", "conv"])
    def test_empty_step_skips_the_gemm(self, kind, coding):
        layer, x = _neuron_layer(kind, coding, bias=False)
        counts = self._counted_step(layer, np.zeros_like(x), hint=0, warm_steps=0)
        assert layer.output_nonzero == 0
        # the first burst step still computes g·v_th; a silent step over an
        # all-ones g leaves the burst function untouched
        expected = {"if_step": 1}
        if coding == "burst":
            expected["scale"] = 1
        assert counts == expected

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

    def test_minimal_backend_runs_the_layer_steps(self):
        """A backend that only implements the seam primitives runs every
        layer: the step bodies are the one place a backend plugs in."""
        from repro.backends.numpy_backend import NumpyBackend

        class MinimalBackend(NumpyBackend):
            name = "minimal-test"
            description = "primitives only (test double)"

        outputs = []
        for backend in (MinimalBackend(), get_backend("numpy")):
            layer, x = _neuron_layer("dense", "burst")
            layer.reset(x.shape[0], dtype="float32", backend=backend)
            outputs.append(np.array(layer.step(np.asarray(x, np.float32), 0, None)))
        assert outputs[0].shape == (2, 8)
        assert np.array_equal(outputs[0], outputs[1])


class TestBackendSwitchInvalidation:
    def test_dense_buffers_rebuilt_on_backend_switch(self):
        from repro.snn.layers import SpikingDense
        from repro.snn.thresholds import BurstThreshold

        rng = np.random.default_rng(1)
        layer = SpikingDense(rng.normal(size=(16, 8)), None, BurstThreshold(v_th=0.125))
        layer.reset(4, dtype="float32", backend="numpy")
        z_numpy, state_numpy = layer._z, layer.state
        # same backend, same geometry: buffers and neuron state are reused
        layer.reset(4, dtype="float32", backend="numpy")
        assert layer._z is z_numpy and layer.state is state_numpy
        # backend switch: everything the old backend built is rebuilt
        layer.reset(4, dtype="float32", backend="numpy-blocked")
        assert layer.backend_changed
        assert layer._z is not z_numpy and layer.state is not state_numpy
        assert layer.ops.name == "numpy-blocked"

    def test_conv_plans_rebuilt_on_backend_switch(self):
        from repro.snn.layers import SpikingConv2D
        from repro.snn.thresholds import BurstThreshold

        rng = np.random.default_rng(2)
        layer = SpikingConv2D(
            rng.normal(scale=0.1, size=(4, 3, 3, 3)), None,
            BurstThreshold(v_th=0.125), padding=1, input_shape=(3, 8, 8),
        )
        layer.reset(2, dtype="float32", backend="numpy")
        x = np.asarray(rng.random((2, 3, 8, 8)) < 0.4, dtype=np.float32) * 0.125
        layer.step(x, 0)
        plan_numpy = layer._plan or layer._direct
        layer.reset(2, dtype="float32", backend="numpy-blocked")
        layer.step(x, 0)
        assert (layer._plan or layer._direct) is not plan_numpy

    def test_switching_backends_preserves_results(self, parity_snn_factory, tiny_color_split):
        """numpy → blocked → numpy on one network: the final numpy run must
        be bit-identical to the first (no stale cross-backend state)."""
        x = tiny_color_split.test.x[:4]
        snn = parity_snn_factory("phase-burst")
        config = SimulationConfig(time_steps=30, dtype="float64")
        first = snn.run(x, config.replace(backend="numpy"))
        snn.run(x, config.replace(backend="numpy-blocked"))
        again = snn.run(x, config.replace(backend="numpy"))
        assert np.array_equal(first.output_history, again.output_history)
        assert first.total_spikes() == again.total_spikes()
