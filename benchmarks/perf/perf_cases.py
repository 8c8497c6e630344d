"""Shared builders for the perf benchmark harness.

The perf suite measures two things:

* **component throughput** — encoder / layer / neuron step times on fixed
  synthetic geometries (no training involved), catching regressions in the
  engine's inner loops;
* **end-to-end speed** — the Table 2 VGG workload (the same scale the seed
  baseline in ``seed_baseline.json`` was recorded at), proving the engine's
  speedup against the seed engine on identical work.

Scale knobs (environment variables, same convention as ``benchmarks/``):

* ``REPRO_BENCH_TIME_STEPS`` / ``REPRO_BENCH_NUM_IMAGES`` /
  ``REPRO_BENCH_SAMPLES_PER_CLASS`` — the end-to-end workload scale; the
  defaults match the recorded seed baseline, so the measured speedup is
  directly comparable.
* ``REPRO_BENCH_PERF_FULL=1`` — additionally time the full five-method
  Table 2 CIFAR-10 block (roughly 4× the single-scheme cost).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.hybrid import HybridCodingScheme
from repro.core.pipeline import AggregatedRun, SNNInferencePipeline
from repro.experiments.sweep import make_pipeline
from repro.experiments.workloads import Workload
from repro.snn.layers import SpikingConv2D, SpikingDense, SpikingMaxPool2D
from repro.snn.encoding import PhaseEncoder
from repro.snn.neurons import IFNeuronState
from repro.snn.thresholds import BurstThreshold
from repro.utils.dtypes import simulation_dtype
from repro.utils.threads import single_blas_thread
from repro.utils.timing import Timer, TimingResult, load_bench_json, time_callable

HERE = Path(__file__).resolve().parent
SEED_BASELINE_PATH = HERE / "seed_baseline.json"

BENCH_TIME_STEPS = int(os.environ.get("REPRO_BENCH_TIME_STEPS", "150"))
BENCH_NUM_IMAGES = int(os.environ.get("REPRO_BENCH_NUM_IMAGES", "24"))
BENCH_SAMPLES_PER_CLASS = int(os.environ.get("REPRO_BENCH_SAMPLES_PER_CLASS", "30"))
PERF_FULL = bool(os.environ.get("REPRO_BENCH_PERF_FULL"))


def current_scale() -> Dict[str, int]:
    return {
        "time_steps": BENCH_TIME_STEPS,
        "num_images": min(16, BENCH_NUM_IMAGES),
        "samples_per_class": BENCH_SAMPLES_PER_CLASS,
    }


def load_seed_baseline() -> Optional[dict]:
    return load_bench_json(SEED_BASELINE_PATH)


def baseline_is_comparable(baseline: Optional[dict]) -> bool:
    """The recorded seed baseline is only a fair yardstick at the same scale."""
    if baseline is None:
        return False
    return baseline.get("scale") == current_scale()


# --------------------------------------------------------------------------
# component micro-benchmarks (synthetic, no training)
# --------------------------------------------------------------------------

def _steady_state(layer, x: np.ndarray, batch: int) -> None:
    layer.reset(batch)
    layer.step(x, 0)  # builds any lazy buffers


@single_blas_thread()
def component_timings(repeats: int = 5) -> Dict[str, TimingResult]:
    """Time the engine's inner loops on fixed geometries (current dtype policy).

    The layer steps are called directly, outside the engine's run, so this
    takes the engine's one-thread BLAS pin itself: unpinned, small GEMMs
    stall on OpenBLAS's thread hand-offs and the timings swing by 200×.
    """
    rng = np.random.default_rng(0)
    batch = 8
    dtype = simulation_dtype()
    results: Dict[str, TimingResult] = {}

    x_img = rng.random((batch, 3, 32, 32))
    encoder = PhaseEncoder()
    encoder.reset(x_img)
    results["encoder_phase_step"] = time_callable(
        lambda: encoder.step(0), "encoder_phase_step", repeats=repeats
    )

    conv = SpikingConv2D(
        rng.normal(scale=0.1, size=(16, 16, 3, 3)),
        rng.normal(scale=0.1, size=16),
        BurstThreshold(v_th=0.125),
        padding=1,
        input_shape=(16, 16, 16),
    )
    x_conv = np.asarray(rng.random((batch, 16, 16, 16)), dtype=dtype)
    _steady_state(conv, x_conv, batch)
    results["conv_layer_step"] = time_callable(
        lambda: conv.step(x_conv, 1), "conv_layer_step", repeats=repeats
    )

    dense = SpikingDense(
        rng.normal(scale=0.05, size=(512, 256)),
        rng.normal(scale=0.05, size=256),
        BurstThreshold(v_th=0.125),
    )
    x_dense = np.asarray(rng.random((batch, 512)), dtype=dtype)
    _steady_state(dense, x_dense, batch)
    results["dense_layer_step"] = time_callable(
        lambda: dense.step(x_dense, 1), "dense_layer_step", repeats=repeats
    )

    pool = SpikingMaxPool2D(2)
    x_pool = np.asarray(rng.random((batch, 16, 16, 16)), dtype=dtype)
    _steady_state(pool, x_pool, batch)
    results["maxpool_layer_step"] = time_callable(
        lambda: pool.step(x_pool, 1), "maxpool_layer_step", repeats=repeats
    )

    state = IFNeuronState((batch, 32768))
    z = np.asarray(rng.random((batch, 32768)), dtype=dtype)
    threshold = np.asarray(0.125, dtype=dtype)
    state.step(z, threshold)
    results["neuron_state_step"] = time_callable(
        lambda: state.step(z, threshold), "neuron_state_step", repeats=repeats
    )
    return results


# --------------------------------------------------------------------------
# end-to-end Table 2 VGG measurements
# --------------------------------------------------------------------------

def build_vgg_pipeline(workload: Workload) -> SNNInferencePipeline:
    scale = current_scale()
    pipeline = make_pipeline(
        workload, time_steps=scale["time_steps"], num_images=scale["num_images"], seed=0
    )
    # warm the normalisation / DNN-accuracy caches outside any timed region,
    # mirroring how the seed baseline was recorded
    pipeline.dnn_accuracy
    pipeline.normalization
    return pipeline


def time_vgg_scheme_run(
    pipeline: SNNInferencePipeline, repeats: int = 1
) -> Tuple[float, AggregatedRun]:
    """Time the end-to-end phase-burst scheme run (the paper's proposal).

    ``repeats > 1`` reports the best-of-N wall clock (the same protocol the
    component micro-benchmarks use, robust to scheduler noise on the shared
    bench machine); the returned run is from the last repeat.
    """
    scheme = HybridCodingScheme.from_notation("phase-burst", v_th=0.125)
    best = float("inf")
    run: Optional[AggregatedRun] = None
    for _ in range(max(1, repeats)):
        with Timer() as timer:
            run = pipeline.run_scheme(scheme)
        best = min(best, timer.seconds)
    assert run is not None
    return best, run


def time_table2_block(workload: Workload) -> Tuple[float, int]:
    """Time the full five-method Table 2 CIFAR-10 block (full mode only)."""
    from repro.experiments.table2 import run_table2

    scale = current_scale()
    with Timer() as timer:
        rows = run_table2(
            datasets=("cifar10",),
            workloads={"cifar10": workload},
            time_steps=scale["time_steps"],
            num_images=scale["num_images"],
            target_fraction=0.99,
        )
    return timer.seconds, len(rows)
