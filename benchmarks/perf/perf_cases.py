"""Shared builders for the perf benchmark harness.

The perf suite measures two things:

* **component throughput** — encoder / layer / neuron step times on fixed
  synthetic geometries (no training involved), catching regressions in the
  engine's inner loops;
* **end-to-end speed** — the Table 2 VGG phase-burst run of the current
  engine, timed in the same session and on the same work as the seed engine
  (revision :data:`SEED_REVISION`) and as the previous benchmarked revision.
  Each of those two runs in an :class:`EngineWorker`: a ``vgg_worker.py``
  process on a ``git archive`` of that revision's ``src/``.
  :func:`interleaved_best_of` times every engine once per round, rotating
  the order, and reports each one's best of the timed rounds.  No timing is
  read from a file: ``seed_baseline.json`` supplies only the scale and the
  seed's accuracy and spike count, which identify the seed engine.

Scale knobs (environment variables, same convention as ``benchmarks/``):

* ``REPRO_BENCH_TIME_STEPS`` / ``REPRO_BENCH_NUM_IMAGES`` /
  ``REPRO_BENCH_SAMPLES_PER_CLASS`` — the end-to-end workload scale; the
  defaults match ``seed_baseline.json``'s scale, the only one at which the
  speedup against the seed is checked.
* ``REPRO_BENCH_PERF_FULL=1`` — additionally time the full five-method
  Table 2 CIFAR-10 block (roughly 4× the single-scheme cost).
"""

from __future__ import annotations

import io
import json
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import threading
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import record_baseline
from repro.core.pipeline import SNNInferencePipeline
from repro.experiments.workloads import Workload
from repro.snn.layers import SpikingConv2D, SpikingDense, SpikingMaxPool2D
from repro.snn.encoding import PhaseEncoder
from repro.snn.neurons import IFNeuronState
from repro.snn.thresholds import BurstThreshold
from repro.utils.dtypes import simulation_dtype
from repro.utils.threads import single_blas_thread
from repro.utils.timing import Timer, TimingResult, load_bench_json, time_callable

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
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
    """Whether this run's scale is the one ``seed_baseline.json`` was
    recorded at: only there do its accuracy and spike count identify the
    seed engine, and only there is the speedup against the seed checked."""
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
    """The workload's pipeline at the current scale, built (and its
    normalisation / DNN-accuracy caches warmed) as ``record_baseline.py``
    builds it, so every engine is timed on the same set-up."""
    scale = current_scale()
    return record_baseline.vgg_pipeline(workload, scale["time_steps"], scale["num_images"])


@dataclass
class EngineTiming:
    """One engine's end-to-end VGG timings from :func:`interleaved_best_of`."""

    cold_seconds: float  # the first run (builds the scheme's SNN and plans)
    best_seconds: float  # best of the timed rounds
    accuracy: float
    total_spikes: int


#: one timed phase-burst run: ``(seconds, accuracy, total_spikes)``
EngineRunner = Callable[[], Tuple[float, float, int]]


def in_process_runner(pipeline: SNNInferencePipeline) -> EngineRunner:
    """Time this process's engine with the workers' own timing code."""

    def run() -> Tuple[float, float, int]:
        seconds, result = record_baseline.time_phase_burst(pipeline)
        return seconds, result.accuracy, result.total_spikes

    return run


def interleaved_best_of(
    runners: Dict[str, EngineRunner], warm: int = 3, timed: int = 5
) -> Dict[str, EngineTiming]:
    """Time every engine once per round for ``warm + timed`` rounds.

    The first ``warm`` rounds are discarded (the first builds each scheme's
    SNN, plans and calibrations; the rest settle the allocator into steady
    state), and each engine reports its best of the ``timed`` rounds.  The
    order rotates by one engine every round: with a fixed order the engine
    timed second read 1.4–4.5% slower than the same code timed first.
    """
    names = list(runners)
    samples: Dict[str, List[float]] = {name: [] for name in names}
    last: Dict[str, Tuple[float, int]] = {}
    for round_index in range(warm + timed):
        shift = round_index % len(names)
        for name in names[shift:] + names[:shift]:
            seconds, accuracy, total_spikes = runners[name]()
            samples[name].append(seconds)
            last[name] = (accuracy, total_spikes)
    return {
        name: EngineTiming(
            cold_seconds=samples[name][0],
            best_seconds=min(samples[name][warm:]),
            accuracy=last[name][0],
            total_spikes=last[name][1],
        )
        for name in names
    }


# --------------------------------------------------------------------------
# engines of other revisions, timed in this session
# --------------------------------------------------------------------------

#: the seed engine every end-to-end speedup is measured against
SEED_REVISION = "92953cf"

#: bounds on a worker's answers: the first one waits for the workload to
#: train (about 12 s for the seed on one free core), a run takes seconds
WORKER_READY_TIMEOUT_S = 600.0
WORKER_RUN_TIMEOUT_S = 300.0


def revision_missing(rev: str) -> Optional[str]:
    """Why ``rev`` cannot be exported from this checkout, or ``None``."""
    try:
        found = subprocess.run(
            ["git", "cat-file", "-e", f"{rev}^{{commit}}"],
            cwd=REPO_ROOT,
            capture_output=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"cannot export revision {rev}: git is not usable here ({exc})"
    if found.returncode != 0:
        return (
            f"revision {rev} is not in this checkout "
            f"(no git history here, or a shallow clone)"
        )
    return None


class EngineWorker:
    """A ``vgg_worker.py`` process timing the engine of revision ``rev``.

    The constructor exports ``git archive <rev> src`` into a temporary
    directory and starts the worker with ``PYTHONPATH`` set to that tree
    alone; it returns at once, while the worker builds its workload.
    :meth:`wait_ready` collects the worker's first answer, :meth:`run` times
    one phase-burst run.  :meth:`close` (also on leaving a ``with`` block)
    stops the worker and deletes the tree.  A worker that exits or does not
    answer in time raises ``RuntimeError`` carrying its stderr.
    """

    def __init__(self, rev: str, scale: Dict[str, int]) -> None:
        self.rev = rev
        self.tree = Path(tempfile.mkdtemp(prefix=f"repro-{rev}-"))
        self.repro_file: Optional[str] = None
        self._stderr = tempfile.TemporaryFile()
        self._replies: "queue.Queue[Optional[str]]" = queue.Queue()
        self._process: Optional[subprocess.Popen] = None
        self._reader = threading.Thread(target=self._read_replies, daemon=True)
        try:
            archive = subprocess.run(
                ["git", "archive", "--format=zip", rev, "src"],
                cwd=REPO_ROOT,
                capture_output=True,
                check=True,
                timeout=120,
            ).stdout
            with zipfile.ZipFile(io.BytesIO(archive)) as files:
                files.extractall(self.tree)
            self._process = subprocess.Popen(
                [sys.executable, str(HERE / "vgg_worker.py"), json.dumps(scale)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._stderr,
                text=True,
                env={**os.environ, "PYTHONPATH": str(self.tree / "src")},
            )
        except BaseException:
            self.close()
            raise
        self._reader.start()

    def __enter__(self) -> "EngineWorker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _read_replies(self) -> None:
        for line in self._process.stdout:
            self._replies.put(line)
        self._replies.put(None)  # end of output: the worker exited

    def _reply(self, timeout: float) -> dict:
        try:
            line = self._replies.get(timeout=timeout)
        except queue.Empty:
            self._fail(f"gave no answer within {timeout:.0f} s")
        if line is None:
            self._process.wait()
            self._fail(f"exited with status {self._process.returncode}")
        return json.loads(line)

    def _fail(self, what: str) -> None:
        # a worker that failed once is not asked again: stop it now, so a
        # stalled one does not hold a core until close()
        self._process.kill()
        self._process.wait()
        self._stderr.seek(0)
        stderr = self._stderr.read().decode(errors="replace")
        raise RuntimeError(
            f"timing worker for revision {self.rev} {what}; its stderr:\n{stderr}"
        )

    def wait_ready(self) -> None:
        self.repro_file = self._reply(WORKER_READY_TIMEOUT_S)["repro_file"]

    def run(self) -> Tuple[float, float, int]:
        try:
            self._process.stdin.write("run\n")
            self._process.stdin.flush()
        except BrokenPipeError:
            self._fail("closed its input")
        reply = self._reply(WORKER_RUN_TIMEOUT_S)
        return reply["seconds"], reply["accuracy"], reply["total_spikes"]

    def close(self) -> None:
        if self._process is not None:
            try:
                self._process.stdin.close()  # end of input ends the worker
            except OSError:
                pass
            try:
                self._process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
            self._reader.join(timeout=30)  # ends at the exited worker's end of output
            self._process.stdout.close()
        self._stderr.close()
        shutil.rmtree(self.tree, ignore_errors=True)


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
