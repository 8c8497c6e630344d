"""Perf benchmark: engine throughput and end-to-end speed against other engines.

Writes ``benchmarks/results/BENCH_perf.json`` with per-component timings, the
end-to-end Table 2 VGG measurement, the speedups it was gated on, and a
float32/float64 equivalence check.

The two end-to-end gates compare engines timed in this session, on this
machine, never a time recorded elsewhere.  A module fixture exports the seed
engine (``git archive 92953cf src``) and the revision of the previous
``BENCH_trajectory.json`` row into temporary trees and starts one
``vgg_worker.py`` process on each.  Every round then times the current
engine (in process), the seed and the previous revision once each, in an
order that rotates every round; three warm rounds are discarded and each
engine's best of five timed rounds is kept.

* ``test_end_to_end_vgg_speedup``: best(seed) / best(current) must reach
  :data:`MIN_END_TO_END_SPEEDUP`, at the scale ``seed_baseline.json`` was
  recorded at.  That file's seconds are not read; its accuracy and spike
  count check that the seed worker really ran the seed engine.
* ``test_no_perf_drift_vs_trajectory``: best(previous) / best(current)
  must reach :data:`DRIFT_BAND`.

A gate whose revision cannot be exported here (no ``git``, a tree without
history, a shallow clone) skips, naming the revision.

Run it alone with ``pytest benchmarks/perf -q`` (the perf smoke target) or
deselect it with ``-m "not perf"``.  ``REPRO_BENCH_PERF_FULL=1`` additionally
times the full five-method Table 2 block.  The scale knobs are the usual
``REPRO_BENCH_TIME_STEPS`` / ``REPRO_BENCH_NUM_IMAGES`` /
``REPRO_BENCH_SAMPLES_PER_CLASS``.
"""

import contextlib
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

import perf_cases
import record_baseline
from repro.core.hybrid import HybridCodingScheme
from repro.utils.dtypes import simulation_dtype, simulation_precision
from repro.utils.timing import load_bench_json, write_bench_json

pytestmark = pytest.mark.perf

BENCH_PERF_PATH = perf_cases.HERE.parent / "results" / "BENCH_perf.json"
BENCH_TRAJECTORY_PATH = perf_cases.HERE.parent / "results" / "BENCH_trajectory.json"

#: acceptance floor for the end-to-end speedup against the seed engine timed
#: in the same session (interleaved best-of-5 read 4.25–4.80× on a quiet
#: 2-CPU box with OpenBLAS 0.3.31)
MIN_END_TO_END_SPEEDUP = 4.0

#: the current engine must stay within 5% of the previous revision's speed
DRIFT_BAND = 0.95


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


def _previous_trajectory_row(scale: dict, backend: str) -> dict:
    """The last ``BENCH_trajectory.json`` row at this (scale, backend) from
    another revision, or ``None``.  Rows from the current revision are
    passed over, so re-running the benchmark at one revision compares
    against the *previous* one, not against itself."""
    rev = _git_revision()
    previous = None
    for run in (load_bench_json(BENCH_TRAJECTORY_PATH) or {}).get("runs", []):
        if (
            run.get("scale") == scale
            and run.get("backend", "numpy") == backend
            and run.get("git_rev") != rev
        ):
            previous = run  # rows are appended chronologically: keep the last
    return previous


def _append_trajectory(report: dict) -> None:
    """Record this run's end-to-end numbers in the cross-PR trajectory.

    Entries are keyed by ``(git_rev, scale, backend)``: re-running the
    benchmark at the same revision updates its row in place instead of
    accumulating duplicates, so the trajectory stays one row per measured
    revision per backend.  A row's ``git_rev`` is what the next revision's
    drift guard times against; its seconds and speedup are a record, which
    no gate reads.
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
        "machine": record_baseline.machine_fingerprint(),
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


@pytest.fixture(scope="module")
def vgg_timings(request, perf_report):
    """Interleaved end-to-end VGG timings of the current engine (``"head"``),
    the seed (``"seed"``) and the previous trajectory revision
    (``"previous"``), all from this session.

    Returns ``(timings, workers, skipped)``: the
    :class:`perf_cases.EngineTiming` of each engine timed, the (stopped)
    :class:`perf_cases.EngineWorker` of each other revision, and why each
    engine not timed was left out.  The seed is timed only at the scale of
    ``seed_baseline.json``, the only one its gate checks.  Both workers are
    stopped and their exported trees deleted as soon as the rounds end, or
    fail, before any gate is checked.
    """
    scale = perf_report["scale"]
    revisions, skipped = {}, {}
    if perf_cases.baseline_is_comparable(perf_cases.load_seed_baseline()):
        revisions["seed"] = perf_cases.SEED_REVISION
    else:
        skipped["seed"] = (
            f"scale {scale} is not seed_baseline.json's: the speedup against "
            f"seed {perf_cases.SEED_REVISION} is checked only there"
        )
    previous_row = _previous_trajectory_row(scale, perf_report["backend"])
    if previous_row is None:
        skipped["previous"] = f"no prior trajectory row at scale {scale}"
    else:
        revisions["previous"] = previous_row["git_rev"]
    for name, rev in list(revisions.items()):
        reason = perf_cases.revision_missing(rev)
        if reason is not None:
            skipped[name] = reason
            del revisions[name]

    with contextlib.ExitStack() as stack:
        # the workers train their workloads while this process trains its own
        workers = {
            name: stack.enter_context(perf_cases.EngineWorker(rev, scale))
            for name, rev in revisions.items()
        }
        pipeline = perf_cases.build_vgg_pipeline(
            request.getfixturevalue("cifar10_vgg_workload")
        )
        for worker in workers.values():
            worker.wait_ready()
        runners = {"head": perf_cases.in_process_runner(pipeline)}
        runners.update({name: worker.run for name, worker in workers.items()})
        timings = perf_cases.interleaved_best_of(runners)
    return timings, workers, skipped


def test_component_throughput(perf_report):
    timings = perf_cases.component_timings(repeats=5)
    perf_report["components"] = {name: t.to_dict() for name, t in timings.items()}
    for name, timing in timings.items():
        assert timing.best_seconds < 1.0, f"{name} is pathologically slow"


def test_end_to_end_vgg_speedup(perf_report, vgg_timings, cifar10_vgg_workload):
    timings, workers, skipped = vgg_timings
    head = timings["head"]
    baseline = perf_cases.load_seed_baseline()
    entry = {
        "vgg_phase_burst_run_seconds": head.best_seconds,
        "vgg_phase_burst_cold_run_seconds": head.cold_seconds,
        "timing_protocol": (
            "best-of-5 after three warm runs (cached SNN), interleaved in "
            "rotating order with the other engines timed in this session"
        ),
        "vgg_phase_burst_accuracy": head.accuracy,
        "vgg_phase_burst_total_spikes": head.total_spikes,
        "comparable_to_baseline": perf_cases.baseline_is_comparable(baseline),
    }
    seed = timings.get("seed")
    if seed is not None:
        entry["seed_revision"] = perf_cases.SEED_REVISION
        entry["seed_baseline_seconds"] = seed.best_seconds
        entry["seed_baseline_timing"] = (
            "in-session best-of-5 of the seed engine, interleaved with this one"
        )
        entry["speedup_vs_seed"] = seed.best_seconds / head.best_seconds
    perf_report["end_to_end"].update(entry)

    if perf_cases.PERF_FULL:
        block_seconds, methods = perf_cases.time_table2_block(cifar10_vgg_workload)
        perf_report["end_to_end"]["table2_vgg_block_seconds"] = block_seconds
        perf_report["end_to_end"]["table2_vgg_block_methods"] = methods

    if seed is None:
        pytest.skip(skipped["seed"])
    # the denominator is the seed engine: its package came from the exported
    # tree, and it reproduces the seed's recorded accuracy and spike count
    worker = workers["seed"]
    assert Path(worker.repro_file).is_relative_to(worker.tree / "src")
    assert seed.accuracy == baseline["vgg_phase_burst_accuracy"]
    assert seed.total_spikes == baseline["vgg_phase_burst_total_spikes"]
    assert entry["speedup_vs_seed"] >= MIN_END_TO_END_SPEEDUP, (
        f"end-to-end speedup {entry['speedup_vs_seed']:.2f}x fell below "
        f"{MIN_END_TO_END_SPEEDUP}x vs seed {perf_cases.SEED_REVISION} "
        f"({seed.best_seconds:.3f} s vs {head.best_seconds:.3f} s, this session)"
    )


def test_no_perf_drift_vs_trajectory(perf_report, vgg_timings):
    """CI guard: the current engine must run the VGG case at no less than
    :data:`DRIFT_BAND` of the speed of the previous revision in
    ``BENCH_trajectory.json``, both timed in this session.

    This is the tripwire for slides like the 4.85x → 4.67x the backend-seam
    changes caused: a change that silently costs more than 5% fails here
    instead of merging.  The seed cancels out, so this is ``speedup_vs_seed >= 0.95
    x the previous revision's speedup_vs_seed`` with both speedups measured
    now; the row's recorded seconds are not read.
    """
    timings, workers, skipped = vgg_timings
    previous = timings.get("previous")
    if previous is None:
        pytest.skip(skipped["previous"])
    worker = workers["previous"]
    ratio = previous.best_seconds / timings["head"].best_seconds
    perf_report["end_to_end"].update(
        {
            "previous_revision": worker.rev,
            "previous_revision_seconds": previous.best_seconds,
            "speedup_vs_previous_revision": ratio,
        }
    )
    assert Path(worker.repro_file).is_relative_to(worker.tree / "src")
    assert ratio >= DRIFT_BAND, (
        f"end-to-end VGG run regressed >5% against {worker.rev}: "
        f"{timings['head'].best_seconds:.3f} s vs {previous.best_seconds:.3f} s "
        f"this session (ratio {ratio:.3f}, floor {DRIFT_BAND})"
    )


def test_missing_revision_is_named():
    """The gates' skip reason names the revision that cannot be exported."""
    reason = perf_cases.revision_missing("0000000")
    assert reason is not None and "0000000" in reason


def test_dead_worker_fails_with_its_stderr():
    """A worker that exits makes the fixture fail with the worker's stderr,
    and closing it leaves no process and no exported tree behind."""
    reason = perf_cases.revision_missing(perf_cases.SEED_REVISION)
    if reason is not None:
        pytest.skip(reason)
    with perf_cases.EngineWorker(perf_cases.SEED_REVISION, {}) as worker:
        with pytest.raises(RuntimeError, match="(?s)exited with status 1.*KeyError"):
            worker.wait_ready()
    assert worker._process.poll() is not None
    assert not worker.tree.exists()


def test_silent_worker_is_stopped(monkeypatch):
    """A worker that does not answer within its bound fails the fixture and
    is stopped at once; closing it leaves no exported tree behind."""
    reason = perf_cases.revision_missing(perf_cases.SEED_REVISION)
    if reason is not None:
        pytest.skip(reason)
    # the worker trains its workload (seconds) before its first answer
    monkeypatch.setattr(perf_cases, "WORKER_READY_TIMEOUT_S", 0.01)
    scale = perf_cases.current_scale()
    with perf_cases.EngineWorker(perf_cases.SEED_REVISION, scale) as worker:
        with pytest.raises(RuntimeError, match="gave no answer within"):
            worker.wait_ready()
        assert worker._process.poll() is not None
    assert not worker.tree.exists()


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
