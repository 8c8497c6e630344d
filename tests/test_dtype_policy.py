"""Tests for the simulation dtype policy and cross-precision equivalence.

Three layers of guarantees:

* the policy plumbing itself (defaults, env var, override, context manager);
* float32 vs float64 simulations agree on predictions and (approximately) on
  spike counts for a trained CNN workload — the contract that makes float32 a
  safe default;
* the refactored engine's float64 outputs are **bit-identical** to the seed
  engine's, verified against the golden reference recorded before the
  zero-allocation rewrite (``benchmarks/perf/seed_reference.json``).
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.conversion.converter import convert_to_snn
from repro.core.hybrid import HybridCodingScheme
from repro.snn.network import SimulationConfig
from repro.utils.dtypes import (
    DEFAULT_SIMULATION_DTYPE,
    resolve_dtype,
    set_simulation_dtype,
    simulation_dtype,
    simulation_precision,
)

GOLDEN_PATH = Path(__file__).parent.parent / "benchmarks" / "perf" / "seed_reference.json"


class TestDtypePolicy:
    def test_default_is_float32(self):
        assert DEFAULT_SIMULATION_DTYPE == np.dtype(np.float32)
        assert simulation_dtype() == np.dtype(np.float32)

    def test_resolve_explicit_overrides_policy(self):
        assert resolve_dtype("float64") == np.dtype(np.float64)
        assert resolve_dtype(np.float64) == np.dtype(np.float64)
        assert resolve_dtype(None) == simulation_dtype()

    def test_aliases(self):
        assert resolve_dtype("f32") == np.dtype(np.float32)
        assert resolve_dtype("double") == np.dtype(np.float64)
        assert resolve_dtype("single") == np.dtype(np.float32)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError):
            resolve_dtype("float16")
        with pytest.raises(ValueError):
            resolve_dtype("int32")

    def test_set_and_clear_override(self):
        try:
            assert set_simulation_dtype("float64") == np.dtype(np.float64)
            assert simulation_dtype() == np.dtype(np.float64)
        finally:
            set_simulation_dtype(None)
        assert simulation_dtype() == np.dtype(np.float32)

    def test_context_manager_restores(self):
        before = simulation_dtype()
        with simulation_precision("float64") as dtype:
            assert dtype == np.dtype(np.float64)
            assert simulation_dtype() == np.dtype(np.float64)
        assert simulation_dtype() == before

    def test_env_var_respected(self):
        os.environ["REPRO_SIM_DTYPE"] = "float64"
        try:
            assert simulation_dtype() == np.dtype(np.float64)
        finally:
            del os.environ["REPRO_SIM_DTYPE"]
        assert simulation_dtype() == np.dtype(np.float32)

    def test_simulation_config_validates_dtype(self):
        SimulationConfig(dtype="float64")
        SimulationConfig(dtype=None)
        with pytest.raises(ValueError):
            SimulationConfig(dtype="float16")


class TestFloat32Float64Equivalence:
    """float32 (default) and float64 (opt-in) runs of the same converted CNN
    must classify identically and emit near-identical spike counts."""

    @pytest.fixture(scope="class")
    def snn_and_data(self, trained_cnn, tiny_color_split):
        scheme = HybridCodingScheme.from_notation("real-burst", v_th=0.125)
        snn = convert_to_snn(
            trained_cnn,
            encoder=scheme.make_encoder(seed=0),
            threshold_factory=scheme.make_threshold_factory(),
            calibration_x=tiny_color_split.train.x[:24],
        )
        return snn, tiny_color_split.test.x[:10]

    def test_predictions_and_spikes_agree(self, snn_and_data):
        snn, x = snn_and_data
        r32 = snn.run(x, SimulationConfig(time_steps=60, dtype="float32"))
        r64 = snn.run(x, SimulationConfig(time_steps=60, dtype="float64"))
        assert r32.output_history.dtype == np.float32
        assert r64.output_history.dtype == np.float64
        assert np.array_equal(r32.predictions(), r64.predictions())
        s32, s64 = r32.total_spikes(), r64.total_spikes()
        assert s64 > 0
        # spike counts may differ by a handful of boundary crossings, not more
        assert abs(s32 - s64) <= max(5, 0.01 * s64)
        assert np.allclose(r32.final_outputs, r64.final_outputs, rtol=1e-3, atol=1e-3)

    def test_same_dtype_runs_are_deterministic(self, snn_and_data):
        snn, x = snn_and_data
        a = snn.run(x, SimulationConfig(time_steps=30, dtype="float32"))
        b = snn.run(x, SimulationConfig(time_steps=30, dtype="float32"))
        assert np.array_equal(a.output_history, b.output_history)
        assert a.total_spikes() == b.total_spikes()


@pytest.mark.skipif(not GOLDEN_PATH.exists(), reason="golden reference not recorded")
class TestGoldenFloat64Reference:
    """The refactored engine reproduces the seed engine's float64 outputs
    exactly (predictions, total spike counts and full-precision logits)."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def _run_case(self, case):
        from repro.experiments.sweep import make_pipeline
        from repro.experiments.workloads import build_workload

        with simulation_precision("float64"):
            workload = build_workload(
                dataset=case["dataset"],
                model=case["model"],
                samples_per_class=case["samples_per_class"],
                epochs=case["epochs"],
                seed=0,
            )
            pipeline = make_pipeline(
                workload,
                time_steps=case["time_steps"],
                num_images=case["num_images"],
                batch_size=case["num_images"],
                seed=0,
            )
            for notation, expected in case["runs"].items():
                v_th = 0.125 if notation.endswith("burst") else None
                scheme = HybridCodingScheme.from_notation(notation, v_th=v_th)
                run = pipeline.run_scheme(scheme)
                assert run.outputs_final.dtype == np.float64
                assert run.outputs_final.argmax(axis=1).tolist() == expected["predictions"], notation
                assert run.total_spikes == expected["total_spikes"], notation
                assert np.array_equal(
                    run.outputs_final, np.asarray(expected["final_logits"], dtype=np.float64)
                ), f"{notation}: float64 logits drifted from the seed engine"

    def test_mnist_cnn_case_bit_exact(self, golden):
        case = next(c for c in golden["cases"] if c["name"] == "mnist-small_cnn")
        self._run_case(case)

    def test_cifar10_vgg_case_bit_exact(self, golden):
        case = next(c for c in golden["cases"] if c["name"] == "cifar10-vgg_small")
        self._run_case(case)
