"""Record the perf baseline and the float64 golden reference of the engine.

Run from the repo root with ``PYTHONPATH=src python benchmarks/perf/record_baseline.py``.

Two artefacts are (re)written next to this script:

* ``seed_baseline.json`` — wall-clock timings of the end-to-end Table 2 VGG
  workload (the single ``phase-burst`` scheme run and the full five-method
  CIFAR-10 block) at the default benchmark scale, with the run's accuracy
  and total spike count.  The committed copy was recorded once with the
  *seed* engine (revision ``92953cf``) on another machine.  No perf gate
  reads its seconds: ``test_perf_engine.py`` times the seed engine in the
  same session as the current one (see ``vgg_worker.py``) and uses this
  file only for the scale and for the seed's accuracy and spike count,
  which identify the seed engine.  Re-running this script rewrites those
  identity numbers with whatever engine is on ``PYTHONPATH``.
* ``seed_reference.json`` — float64 predictions, total spike counts and final
  logits of small deterministic workloads.  The committed copy captures the
  seed engine's float64 outputs; the refactored engine must reproduce them
  exactly (see ``tests/test_dtype_policy.py``).

The script is deliberately self-contained (stdlib ``json``/``time`` only on
top of the repro package, and only repro APIs the seed already has) so it
runs identically on the seed tree; ``vgg_worker.py`` builds and times the
VGG case with its functions for the same reason.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

BENCH_TIME_STEPS = int(os.environ.get("REPRO_BENCH_TIME_STEPS", "150"))
BENCH_NUM_IMAGES = int(os.environ.get("REPRO_BENCH_NUM_IMAGES", "24"))
BENCH_SAMPLES_PER_CLASS = int(os.environ.get("REPRO_BENCH_SAMPLES_PER_CLASS", "30"))

#: scale of the golden-reference workloads (small but exercises conv, max/avg
#: pooling, dense, and the three deterministic coding families)
REFERENCE_CASES = (
    {
        "name": "mnist-small_cnn",
        "dataset": "mnist",
        "model": "small_cnn",
        "samples_per_class": 8,
        "epochs": 3,
        "time_steps": 40,
        "num_images": 8,
        "schemes": [["real-burst", 0.125], ["rate-rate", None], ["phase-phase", None]],
    },
    {
        "name": "cifar10-vgg_small",
        "dataset": "cifar10",
        "model": "vgg_small",
        "samples_per_class": 4,
        "epochs": 2,
        "time_steps": 25,
        "num_images": 4,
        "schemes": [["phase-burst", 0.125], ["real-rate", None]],
    },
)


def machine_fingerprint() -> dict:
    import numpy as np

    return {
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def vgg_workload(samples_per_class: int):
    """The Table 2 CIFAR-10 VGG workload (trains the DNN)."""
    from repro.experiments.workloads import cifar10_workload

    return cifar10_workload(samples_per_class=samples_per_class, epochs=15, seed=0)


def vgg_pipeline(workload, time_steps: int, num_images: int):
    """The workload's inference pipeline, with its caches warmed."""
    from repro.experiments.sweep import make_pipeline

    pipeline = make_pipeline(workload, time_steps=time_steps, num_images=num_images, seed=0)
    pipeline.dnn_accuracy  # warm the caches outside the timed region
    pipeline.normalization
    return pipeline


def time_phase_burst(pipeline):
    """Wall-clock seconds of one phase-burst scheme run, and the run."""
    from repro.core.hybrid import HybridCodingScheme

    scheme = HybridCodingScheme.from_notation("phase-burst", v_th=0.125)
    t0 = time.perf_counter()
    run = pipeline.run_scheme(scheme)
    return time.perf_counter() - t0, run


def record_baseline() -> dict:
    from repro.experiments.table2 import run_table2

    num_images = min(16, BENCH_NUM_IMAGES)

    t0 = time.perf_counter()
    workload = vgg_workload(BENCH_SAMPLES_PER_CLASS)
    workload_seconds = time.perf_counter() - t0

    pipeline = vgg_pipeline(workload, BENCH_TIME_STEPS, num_images)
    scheme_seconds, run = time_phase_burst(pipeline)

    t0 = time.perf_counter()
    rows = run_table2(
        datasets=("cifar10",),
        workloads={"cifar10": workload},
        time_steps=BENCH_TIME_STEPS,
        num_images=num_images,
        target_fraction=0.99,
    )
    block_seconds = time.perf_counter() - t0

    return {
        "description": "seed-engine wall-clock baseline for the Table 2 VGG workload",
        "machine": machine_fingerprint(),
        "scale": {
            "time_steps": BENCH_TIME_STEPS,
            "num_images": num_images,
            "samples_per_class": BENCH_SAMPLES_PER_CLASS,
        },
        "workload_build_seconds": workload_seconds,
        "vgg_phase_burst_run_seconds": scheme_seconds,
        "vgg_phase_burst_accuracy": run.accuracy,
        "vgg_phase_burst_total_spikes": run.total_spikes,
        "table2_vgg_block_seconds": block_seconds,
        "table2_vgg_block_methods": len(rows),
    }


def record_reference() -> dict:
    from repro.core.hybrid import HybridCodingScheme
    from repro.experiments.sweep import make_pipeline
    from repro.experiments.workloads import build_workload

    cases = []
    for spec in REFERENCE_CASES:
        workload = build_workload(
            dataset=spec["dataset"],
            model=spec["model"],
            samples_per_class=spec["samples_per_class"],
            epochs=spec["epochs"],
            seed=0,
        )
        pipeline = make_pipeline(
            workload,
            time_steps=spec["time_steps"],
            num_images=spec["num_images"],
            batch_size=spec["num_images"],
            seed=0,
        )
        runs = {}
        for notation, v_th in spec["schemes"]:
            scheme = HybridCodingScheme.from_notation(notation, v_th=v_th)
            run = pipeline.run_scheme(scheme)
            runs[notation] = {
                "predictions": run.outputs_final.argmax(axis=1).tolist(),
                "total_spikes": int(run.total_spikes),
                "final_logits": run.outputs_final.tolist(),
            }
        cases.append({**{k: spec[k] for k in spec if k != "schemes"}, "runs": runs})
    return {
        "description": "seed-engine float64 golden outputs (exact-match reference)",
        "machine": machine_fingerprint(),
        "cases": cases,
    }


def main() -> None:
    baseline = record_baseline()
    (HERE / "seed_baseline.json").write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"wrote seed_baseline.json: "
          f"scheme run {baseline['vgg_phase_burst_run_seconds']:.2f}s, "
          f"table2 block {baseline['table2_vgg_block_seconds']:.2f}s")
    reference = record_reference()
    (HERE / "seed_reference.json").write_text(json.dumps(reference, indent=2) + "\n")
    print("wrote seed_reference.json")


if __name__ == "__main__":
    main()
