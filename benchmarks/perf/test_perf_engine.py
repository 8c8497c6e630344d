"""Perf benchmark: engine throughput and end-to-end speedup vs the seed.

Writes ``benchmarks/results/BENCH_perf.json`` with per-component timings, the
end-to-end Table 2 VGG measurement, the speedup against the recorded seed
baseline (``seed_baseline.json``), and a float32/float64 equivalence check.

Run it alone with ``pytest benchmarks/perf -q`` (the perf smoke target) or
deselect it with ``-m "not perf"``.  ``REPRO_BENCH_PERF_FULL=1`` additionally
times the full five-method Table 2 block.  The scale knobs are the usual
``REPRO_BENCH_TIME_STEPS`` / ``REPRO_BENCH_NUM_IMAGES`` /
``REPRO_BENCH_SAMPLES_PER_CLASS``; at the default scale the measurement is
directly comparable to the committed seed baseline.
"""

import json
import subprocess

import numpy as np
import pytest

import perf_cases
from repro.core.hybrid import HybridCodingScheme
from repro.utils.dtypes import simulation_dtype, simulation_precision
from repro.utils.timing import load_bench_json, write_bench_json

pytestmark = pytest.mark.perf

BENCH_PERF_PATH = perf_cases.HERE.parent / "results" / "BENCH_perf.json"
BENCH_TRAJECTORY_PATH = perf_cases.HERE.parent / "results" / "BENCH_trajectory.json"

#: acceptance floor for the end-to-end speedup vs the recorded seed baseline
#: (PR 1's zero-allocation engine landed at ~2.4x; PR 2's sparsity-aware
#: propagation engine lands at ~4.4x on the recording machine)
MIN_END_TO_END_SPEEDUP = 4.0


def _git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=perf_cases.HERE,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def _append_trajectory(report: dict) -> None:
    """Record this run's end-to-end numbers in the cross-PR trajectory.

    Entries are keyed by ``(git_rev, scale, backend)``: re-running the
    benchmark at the same revision updates its row in place instead of
    accumulating duplicates, so the trajectory stays one row per measured
    revision per backend and per-backend speedups are tracked across PRs.
    """
    end_to_end = report.get("end_to_end", {})
    seconds = end_to_end.get("vgg_phase_burst_run_seconds")
    if seconds is None:
        return
    history = load_bench_json(BENCH_TRAJECTORY_PATH) or {"runs": []}
    entry = {
        "git_rev": _git_revision(),
        "scale": report["scale"],
        "backend": report.get("backend", "numpy"),
        "seconds": seconds,
        "speedup_vs_seed": end_to_end.get("speedup_vs_seed"),
    }
    runs = history.setdefault("runs", [])
    for index, run in enumerate(runs):
        if (
            run.get("git_rev") == entry["git_rev"]
            and run.get("scale") == entry["scale"]
            and run.get("backend", "numpy") == entry["backend"]
        ):
            runs[index] = entry
            break
    else:
        runs.append(entry)
    BENCH_TRAJECTORY_PATH.parent.mkdir(parents=True, exist_ok=True)
    BENCH_TRAJECTORY_PATH.write_text(json.dumps(history, indent=2) + "\n")


@pytest.fixture(scope="module")
def perf_report():
    report = {
        "description": "engine perf report (components + end-to-end Table 2 VGG)",
        "dtype_default": str(simulation_dtype()),
        "backend": "numpy",
        "scale": perf_cases.current_scale(),
        "components": {},
        "end_to_end": {},
        "equivalence": {},
        "early_exit_sharding": {},
    }
    yield report
    write_bench_json(BENCH_PERF_PATH, report)
    _append_trajectory(report)
    print(f"\n[BENCH_perf written to {BENCH_PERF_PATH}; trajectory appended to "
          f"{BENCH_TRAJECTORY_PATH}]")


def test_component_throughput(perf_report):
    timings = perf_cases.component_timings(repeats=5)
    perf_report["components"] = {name: t.to_dict() for name, t in timings.items()}
    for name, timing in timings.items():
        assert timing.best_seconds < 1.0, f"{name} is pathologically slow"


def test_end_to_end_vgg_speedup(perf_report, cifar10_vgg_workload):
    pipeline = perf_cases.build_vgg_pipeline(cifar10_vgg_workload)
    # protocol: discarded warm runs (the first builds the scheme's SNN, plans
    # and calibrations; the rest settle the allocator / cpu into steady
    # state — this measures steady-state serving, not cold start), then
    # best-of-5 timed runs, mirroring the component micro-benchmarks.  The
    # seed baseline was a single post-warm run of an engine without reusable
    # plans, so its cold/warm gap was negligible; the cold-start figure is
    # recorded alongside for transparency.
    cold_seconds, _ = perf_cases.time_vgg_scheme_run(pipeline)
    perf_cases.time_vgg_scheme_run(pipeline, repeats=2)
    seconds, run = perf_cases.time_vgg_scheme_run(pipeline, repeats=5)

    baseline = perf_cases.load_seed_baseline()
    comparable = perf_cases.baseline_is_comparable(baseline)
    entry = {
        "vgg_phase_burst_run_seconds": seconds,
        "vgg_phase_burst_cold_run_seconds": cold_seconds,
        "timing_protocol": "best-of-5 after three warm runs (cached SNN)",
        "vgg_phase_burst_accuracy": run.accuracy,
        "vgg_phase_burst_total_spikes": run.total_spikes,
        "comparable_to_baseline": comparable,
    }
    if baseline is not None:
        entry["seed_baseline_seconds"] = baseline["vgg_phase_burst_run_seconds"]
        entry["speedup_vs_seed"] = baseline["vgg_phase_burst_run_seconds"] / seconds
    perf_report["end_to_end"].update(entry)

    if perf_cases.PERF_FULL:
        block_seconds, methods = perf_cases.time_table2_block(cifar10_vgg_workload)
        perf_report["end_to_end"]["table2_vgg_block_seconds"] = block_seconds
        perf_report["end_to_end"]["table2_vgg_block_methods"] = methods
        if baseline is not None and "table2_vgg_block_seconds" in baseline:
            perf_report["end_to_end"]["table2_block_speedup_vs_seed"] = (
                baseline["table2_vgg_block_seconds"] / block_seconds
            )

    if comparable:
        # same scale as the recorded seed baseline: the zero-allocation engine
        # must be decisively faster (recorded at ~2.5x; floor absorbs noise)
        assert entry["speedup_vs_seed"] >= MIN_END_TO_END_SPEEDUP, (
            f"end-to-end speedup {entry['speedup_vs_seed']:.2f}x fell below "
            f"{MIN_END_TO_END_SPEEDUP}x vs the seed baseline"
        )


def test_no_perf_drift_vs_trajectory(perf_report):
    """CI guard: the measured speedup must stay within 5% of the last
    recorded ``BENCH_trajectory.json`` row for the same (scale, backend).

    This is the tripwire for the 4.85x → 4.67x slide the backend-seam PRs
    caused: any PR that silently costs more than noise fails here instead of
    merging.  Rows from the current revision are skipped (re-running the
    benchmark at one revision must compare against the *previous* PR, not
    against itself).
    """
    current = perf_report["end_to_end"].get("speedup_vs_seed")
    if current is None:
        pytest.skip("no seed-comparable end-to-end measurement in this run")
    history = load_bench_json(BENCH_TRAJECTORY_PATH) or {}
    rev = _git_revision()
    previous = None
    for run in history.get("runs", []):
        if (
            run.get("scale") == perf_report["scale"]
            and run.get("backend", "numpy") == perf_report["backend"]
            and run.get("git_rev") != rev
            and run.get("speedup_vs_seed") is not None
        ):
            previous = run  # rows are appended chronologically: keep the last
    if previous is None:
        pytest.skip("no prior trajectory row at this (scale, backend)")
    floor = 0.95 * previous["speedup_vs_seed"]
    assert current >= floor, (
        f"end-to-end speedup regressed >5%: {current:.2f}x vs "
        f"{previous['speedup_vs_seed']:.2f}x recorded at {previous['git_rev']} "
        f"(floor {floor:.2f}x)"
    )


def test_early_exit_sharded_matches_dense(perf_report, cifar10_vgg_workload):
    """Converged-image early exit plus sharded evaluation reproduces the
    sequential dense run's Table 2 numbers within the reported tolerances.

    On the 1-CPU bench machine the shard request falls back to in-process
    execution (guarded, logged) and the parallel-speedup assertion is
    skipped; the statistical assertions run everywhere.
    """
    import os
    import time

    from repro.core.pipeline import PipelineConfig, SNNInferencePipeline

    scale = perf_cases.current_scale()
    pipeline = perf_cases.build_vgg_pipeline(cifar10_vgg_workload)
    scheme = HybridCodingScheme.from_notation("phase-burst", v_th=0.125)
    dense_start = time.perf_counter()
    dense_run = pipeline.run_scheme(scheme)
    dense_seconds = time.perf_counter() - dense_start

    fast_pipeline = SNNInferencePipeline(
        cifar10_vgg_workload.model,
        cifar10_vgg_workload.data,
        PipelineConfig(
            time_steps=scale["time_steps"],
            batch_size=8,
            max_test_images=scale["num_images"],
            seed=0,
            early_exit_patience=25,
            num_workers=2,
        ),
    )
    start = time.perf_counter()
    fast_run = fast_pipeline.run_scheme(scheme, keep_batch_results=True)
    fast_seconds = time.perf_counter() - start

    # frozen images stop spiking, so the Table 2 density over the *full* time
    # budget shrinks by design; the apples-to-apples comparison is the
    # per-active-step density, using each image's effective latency
    time_steps = scale["time_steps"]
    effective_steps = 0.0
    for result in fast_run.batch_results:
        frozen_at = result.frozen_at
        assert frozen_at is not None
        effective_steps += float(
            np.where(frozen_at > 0, frozen_at, time_steps).sum()
        )
    mean_latency = effective_steps / fast_run.num_images
    dense_density = dense_run.metrics().density
    fast_density_full = fast_run.metrics().density
    fast_density_active = (
        fast_run.spikes_per_image / (fast_run.num_neurons * mean_latency)
    )
    entry = {
        "dense_seconds_single_shot": dense_seconds,
        "dense_accuracy": dense_run.accuracy,
        "early_exit_accuracy": fast_run.accuracy,
        "dense_density": dense_density,
        "early_exit_density_full_window": fast_density_full,
        "early_exit_density_active_window": fast_density_active,
        "early_exit_mean_latency": mean_latency,
        "dense_spikes": dense_run.total_spikes,
        "early_exit_spikes": fast_run.total_spikes,
        "early_exit_sharded_seconds": fast_seconds,
        "cpu_count": os.cpu_count(),
    }
    perf_report["early_exit_sharding"].update(entry)

    # Table 2 tolerances: accuracy within one image; the per-active-step
    # density within the convergence-transient factor of the dense average
    # (activity is front-loaded, so the truncated window runs a bit hotter);
    # total spikes can only shrink
    assert abs(fast_run.accuracy - dense_run.accuracy) <= 1.0 / dense_run.num_images + 1e-9
    assert 0.5 * dense_density <= fast_density_active <= 2.0 * dense_density
    assert fast_run.total_spikes <= dense_run.total_spikes

    baseline = perf_cases.load_seed_baseline()
    if (os.cpu_count() or 1) > 1 and perf_cases.baseline_is_comparable(baseline):
        # real parallel machines at the full bench scale: early exit alone
        # already shrinks the work, so the sharded early-exit run must beat
        # the (same-protocol, single-shot) dense sequential run.  Skipped on
        # the 1-CPU bench machine (the shard request falls back in-process)
        # and at reduced CI scales, where fixed worker start-up/conversion
        # costs would dominate the little work there is to save.
        assert fast_seconds < dense_seconds


def test_float64_equivalence_on_vgg(perf_report, cifar10_vgg_workload):
    """The float64 opt-in classifies identically to the float32 default on the
    Table 2 VGG workload (and both match the recorded accuracy)."""
    pipeline = perf_cases.build_vgg_pipeline(cifar10_vgg_workload)
    scheme = HybridCodingScheme.from_notation("phase-burst", v_th=0.125)
    run32 = pipeline.run_scheme(scheme)
    with simulation_precision("float64"):
        run64 = pipeline.run_scheme(scheme)
    agree = bool(
        np.array_equal(
            run32.outputs_final.argmax(axis=1), run64.outputs_final.argmax(axis=1)
        )
    )
    spike_gap = abs(run32.total_spikes - run64.total_spikes) / max(run64.total_spikes, 1)
    perf_report["equivalence"] = {
        "float32_float64_predictions_agree": agree,
        "float32_total_spikes": run32.total_spikes,
        "float64_total_spikes": run64.total_spikes,
        "relative_spike_gap": spike_gap,
    }
    baseline = perf_cases.load_seed_baseline()
    if perf_cases.baseline_is_comparable(baseline):
        # float64 reproduces the seed engine exactly, spike for spike
        assert run64.total_spikes == baseline["vgg_phase_burst_total_spikes"]
        assert run64.accuracy == pytest.approx(baseline["vgg_phase_burst_accuracy"])
    assert agree
    assert spike_gap < 0.01
