"""The benchmark's workloads: set-up, timed measurement and the traced run.

Every call into the system under test goes through its public API, as a user
would make it; the benchmark sets no environment variable, backend or thread
count.  Spans are recorded here, around those calls.

Workloads
---------
``vgg-phase-burst``
    Closed loop of Table 2 evaluations: the CIFAR-10-like ``vgg_small``,
    scheme ``phase-burst`` (v_th 0.125), T=150, the first 16 test images as
    one batch, float32, early exit off.  Time goes to the conv GEMMs and
    ``fc_0`` in ``repro.snn``/``repro.backends``.
``mnist-sweep-exit``
    Closed loop over the paper's nine input/hidden combinations on the
    MNIST-like ``small_cnn``: T=200, the first 32 test images in batches of
    16, ``early_exit_patience=50``.  GEMMs are small, so encoders, the
    early-exit drive and the per-call conversion of Poisson rate-input
    schemes dominate.
``serve-mnist``
    An in-process ``ServingEngine`` (``ServingConfig`` defaults: one
    replica, batches of up to 8, 5 ms wait; ``phase-burst``, T=100) driven
    open loop by one generator thread on a seeded Poisson schedule at 15
    requests/s, about a third of one replica's capacity here.  The only
    workload that runs ``repro.serving``.  Higher rates queue enough that
    this 2-CPU machine's own speed swings move the latency percentiles by
    more than a quarter from run to run.
"""

from __future__ import annotations

import concurrent.futures
import functools
import gc
import importlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from spans import Tracer
from stats import median, poisson_schedule, tail

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: the paper's nine input/hidden combinations (not the registry's ``all``,
#: which also pulls in extensions such as TTFS)
PAPER_SCHEMES = tuple(
    f"{inp}-{hidden}" for inp in ("real", "rate", "phase") for hidden in ("rate", "phase", "burst")
)
#: burst hidden layers run at the paper's swept threshold
BURST_V_TH = 0.125
SERVE_SCHEME = "phase-burst"
#: requests per second of each open-loop workload
SERVE_RATES = {"serve-mnist": 15.0}
#: images sent one at a time through ``classify_sync`` for the serving check
SERVE_CHECK_IMAGES = 16
#: batch replayed layer by layer in a serving workload's traced run
SERVE_TRACE_BATCH = 8
#: relative tolerance on total spikes against the reference (float32 contract)
SPIKE_TOLERANCE = 0.01
#: cold set-ups per run; the median is reported.  The VGG set-up trains a
#: network for about 18 s, so one is all a run can afford.
SETUP_REPEATS = {
    "vgg-phase-burst": 1,
    "mnist-sweep-exit": 2,
    "serve-mnist": 3,
}


@dataclass(frozen=True)
class OfflineSpec:
    """One closed-loop workload over ``SNNInferencePipeline.run_scheme``."""

    build: Dict[str, object]
    schemes: Tuple[str, ...]
    time_steps: int
    num_images: int
    batch_size: int
    early_exit_patience: Optional[int] = None


OFFLINE = {
    "vgg-phase-burst": OfflineSpec(
        build=dict(dataset="cifar10", model="vgg_small", samples_per_class=30, epochs=15),
        schemes=("phase-burst",),
        time_steps=150,
        num_images=16,
        batch_size=16,
    ),
    "mnist-sweep-exit": OfflineSpec(
        build=dict(dataset="mnist", model="small_cnn", samples_per_class=30, epochs=12),
        schemes=PAPER_SCHEMES,
        time_steps=200,
        num_images=32,
        batch_size=16,
        early_exit_patience=50,
    ),
}
SERVE_BUILD = dict(dataset="mnist", model="small_cnn", samples_per_class=30, epochs=12)

WORKLOADS = tuple(OFFLINE) + tuple(SERVE_RATES)


@dataclass
class Outcome:
    """What one run measured and how many of its operations failed."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED: {what}")
        return ok


def make_scheme(notation: str):
    from repro.core.hybrid import HybridCodingScheme

    hidden = notation.split("-")[1]
    return HybridCodingScheme.from_notation(
        notation, v_th=BURST_V_TH if hidden == "burst" else None
    )


def cold_caches() -> None:
    """Empty the program's in-process caches so a set-up starts cold."""
    from repro.experiments.workloads import clear_workload_cache

    clear_workload_cache()
    # process-wide kernel-choice caches, looked up defensively: later
    # simplifications of the program may remove them
    for module_name, attribute in (
        ("repro.utils.sparsity", "_CALIBRATION_CACHE"),
        ("repro.ann.im2col", "_DIRECT_ENGINE_CACHE"),
    ):
        try:
            cache = getattr(importlib.import_module(module_name), attribute, None)
        except ImportError:
            continue
        if isinstance(cache, dict):
            cache.clear()
    gc.collect()


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_reference() -> Dict[str, Dict[str, dict]]:
    try:
        return json.loads(REFERENCE_PATH.read_text())
    except FileNotFoundError:
        return {}


# -- offline workloads -------------------------------------------------------

def offline_setup(spec: OfflineSpec, tracer: Tracer):
    """Build the workload, normalise, and run every scheme once cold."""
    from repro.core.pipeline import PipelineConfig, SNNInferencePipeline
    from repro.experiments.workloads import build_workload

    start = time.perf_counter()
    with tracer.span("workloads.build"):
        workload = build_workload(**spec.build)
    config = PipelineConfig(
        time_steps=spec.time_steps,
        batch_size=spec.batch_size,
        max_test_images=spec.num_images,
        early_exit_patience=spec.early_exit_patience,
    )
    pipeline = SNNInferencePipeline(workload.model, workload.data, config)
    with tracer.span("conversion.normalize"):
        pipeline.normalization  # noqa: B018 - computed once, shared by every scheme
    schemes = [make_scheme(notation) for notation in spec.schemes]
    with tracer.span("setup.first_evaluation"):
        runs = [pipeline.run_scheme(scheme) for scheme in schemes]
    return pipeline, schemes, runs, time.perf_counter() - start


def check_run(outcome: Outcome, reference: Dict[str, dict], run) -> None:
    """Predictions equal the stored reference; total spikes within 1%."""
    expected = reference.get(run.scheme)
    if expected is None:
        outcome.check(False, f"{run.scheme}: no stored reference")
        return
    predictions = run.outputs_final.argmax(axis=1).tolist()
    outcome.check(
        predictions == expected["predictions"],
        f"{run.scheme}: predictions {predictions} != reference {expected['predictions']}",
    )
    spikes = run.total_spikes
    outcome.check(
        abs(spikes - expected["total_spikes"]) <= SPIKE_TOLERANCE * expected["total_spikes"],
        f"{run.scheme}: {spikes} spikes vs reference {expected['total_spikes']}",
    )


def run_offline(name: str, seconds: float, trace: bool, outcome: Outcome) -> Tracer:
    spec = OFFLINE[name]
    reference = load_reference().get(name, {})
    tracer = Tracer(enabled=trace)
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS[name]):
        cold_caches()
        pipeline, schemes, runs, elapsed = offline_setup(spec, tracer)
        setups.append(elapsed)
        for run in runs:
            check_run(outcome, reference, run)
    outcome.notes.append(f"setup_s samples: {[round(s, 3) for s in setups]}")
    if trace:
        trace_offline(spec, pipeline, schemes, tracer, outcome)
        return tracer

    evaluations: List[float] = []
    sweeps: List[float] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sweep_start = time.perf_counter()
        for scheme in schemes:
            started = time.perf_counter()
            try:
                run = pipeline.run_scheme(scheme)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                evaluations.append(float("inf"))
                outcome.check(False, f"{scheme.notation}: raised {exc!r}")
                continue
            evaluations.append(time.perf_counter() - started)
            check_run(outcome, reference, run)
        sweeps.append(time.perf_counter() - sweep_start)

    images = spec.num_images * len(schemes)
    tail_s, percentile, count = tail(evaluations)
    outcome.metrics.update(
        setup_s=median(setups),
        images_per_s=images / median(sweeps),
        p50_ms=1000.0 * median(evaluations),
        tail_ms=1000.0 * tail_s,
    )
    outcome.notes.append(
        f"{len(sweeps)} sweeps of {images} images; {count} evaluations, "
        f"tail_ms is p{percentile:.1f}"
    )
    return tracer


def trace_offline(spec: OfflineSpec, pipeline, schemes, tracer: Tracer, outcome: Outcome) -> None:
    """One traced operation: the conversions inside the pipeline's own sweep,
    then the engine stages and a layer-by-layer replay of every batch."""
    from repro.snn.network import SimulationConfig

    module = importlib.import_module("repro.core.pipeline")
    real_build = module.build_network

    with tracer.span("op.pipeline") as op:

        def counted_build(*args, **kwargs):
            with tracer.span("conversion.build_network", parent=op):
                return real_build(*args, **kwargs)

        module.build_network = counted_build
        try:
            for scheme in schemes:
                pipeline.run_scheme(scheme)
        finally:
            module.build_network = real_build

    config = pipeline.config
    sim_config = SimulationConfig(
        time_steps=config.time_steps,
        record_outputs_every=config.record_outputs_every,
        sample_fraction=config.sample_fraction,
        seed=config.seed,
        early_exit_patience=config.early_exit_patience,
    )
    x = pipeline.data.test.x[: spec.num_images]
    with tracer.span("op.engine") as op:
        for scheme in schemes:
            for start in range(0, spec.num_images, spec.batch_size):
                trace_batch(
                    tracer, op, pipeline.model, pipeline.normalization, scheme,
                    sim_config, x[start : start + spec.batch_size], outcome,
                )


# -- engine stages and the layer-by-layer replay -----------------------------

def trace_batch(tracer, parent, model, normalization, scheme, sim_config, x, outcome) -> None:
    """Drive build → prepare → execute for one batch, then replay the same
    batch step by step on a second, identically built network.

    The replay runs on an ``InstrumentedBackend`` while the program still has
    one, which counts the backend primitives the layer steps call.
    """
    from repro.engine.build import build_network
    from repro.engine.plan import plan_simulation
    from repro.engine.run import execute

    def build():
        return build_network(model, scheme, normalization=normalization, seed=sim_config.seed)

    with tracer.span("engine.build", parent=parent):
        network = build()
    plan = plan_simulation(network, sim_config)
    with tracer.span("engine.prepare", parent=parent):
        prepared = plan.prepare(x)
    with tracer.span("engine.execute", parent=parent):
        result = execute(prepared)
    tracer.count("engine.images", result.batch_size)
    steps = sim_config.time_steps * result.batch_size
    if result.frozen_at is not None:
        frozen = result.frozen_at
        steps = int(np.where(frozen >= 0, frozen, sim_config.time_steps).sum())
    tracer.count("engine.steps", steps)
    for layer in network.layers:
        decisions = getattr(getattr(layer, "dispatcher", None), "decisions", None)
        if isinstance(decisions, dict):
            for branch, n in decisions.items():
                tracer.count(f"sparsity.{branch}", n)

    replay_plan = plan_simulation(build(), sim_config)
    backend = instrumented_backend(replay_plan)
    if backend is not None:
        replay_plan.backend = backend
    replay_prepared = replay_plan.prepare(x)
    if backend is not None:
        backend.recorder.reset()
    with tracer.span("snn.replay", parent=parent) as replay_span:
        logits, spikes = replay(replay_prepared, tracer, replay_span)
    if backend is not None:
        recorder = backend.recorder
        tracer.count("backends.recorded", 1)
        for primitive, n in recorder.counts.items():
            tracer.count(f"backends.{primitive}.calls", n)
            tracer.count(f"backends.{primitive}.s", recorder.seconds[primitive])
    for layer_name, n in spikes.items():
        tracer.count(f"snn.{layer_name}.spikes", n)
    outcome.check(
        np.array_equal(logits, result.final_outputs),
        f"{scheme.notation}: replayed logits differ from execute's",
    )


def instrumented_backend(plan):
    """An ``InstrumentedBackend`` around ``plan``'s backend, or ``None`` once
    the program no longer has that proxy (its backend metrics are then absent)."""
    try:
        from repro.backends import InstrumentedBackend, resolve_backend
    except ImportError:
        return None
    return InstrumentedBackend(resolve_backend(getattr(plan, "backend", None)))


def replay(prepared, tracer: Tracer, parent: int):
    """Step the encoder and every layer by hand, one span per call.

    Mirrors the engine's per-step loop, including the argmax-stability early
    exit, and returns the final logits plus the spikes each layer emitted.
    """
    plan = prepared.plan
    network = plan.network
    config = plan.config
    if config.early_exit_margin is not None:
        raise ValueError("the replay implements the patience-only early exit")
    encoder = network.encoder
    layers = network.layers
    output = network.output_layer
    tracks_spikes = getattr(encoder, "values_nonzero_tracks_spikes", False)
    patience = config.early_exit_patience
    batch = prepared.batch_size
    latest = np.zeros((batch, network.num_classes), dtype=plan.dtype)
    active = np.arange(batch)
    previous = np.full(batch, -1, dtype=np.int64)
    stable = np.zeros(batch, dtype=np.int64)
    spikes = {"input": 0}
    spikes.update({layer.name: 0 for layer in layers if layer.is_spiking})
    step_names = [f"snn.{layer.name}.step" for layer in layers]
    span = tracer.span

    for t in range(config.time_steps):
        with span("snn.encoder.step", parent=parent):
            encoded = encoder.step(t)
        count = encoded.spike_count
        spikes["input"] += count
        values = encoded.values
        hint = count if tracks_spikes else None
        for layer, step_name in zip(layers, step_names):
            layer.output_nonzero = None
            with span(step_name, parent=parent):
                values = layer.step(values, t, hint)
            hint = layer.output_nonzero
            if layer.is_spiking:
                spikes[layer.name] += int(hint) if hint is not None else layer.spike_count()
        if patience is None:
            continue
        logits = output.logits
        latest[active] = logits
        predictions = logits.argmax(axis=1)
        unchanged = predictions == previous[active]
        stable[active] = np.where(unchanged, stable[active] + 1, 1)
        previous[active] = predictions
        frozen = stable[active] >= patience
        if frozen.any() and t + 1 < config.time_steps:
            keep = np.flatnonzero(~frozen)
            if keep.size == 0:
                break
            encoder.shrink_batch(keep)
            for layer in layers:
                layer.shrink_batch(keep)
            active = active[keep]
    if patience is None:
        latest = np.array(output.logits)
    return latest, spikes


# -- serving workloads -------------------------------------------------------

def serve_setup(tracer: Tracer):
    """Build the workload and a ServingEngine, warm it, answer a batch of each size."""
    from repro.experiments.workloads import build_workload
    from repro.serving.engine import ServingConfig, ServingEngine

    start = time.perf_counter()
    with tracer.span("workloads.build"):
        workload = build_workload(**SERVE_BUILD)
    engine = ServingEngine(
        workload.model, calibration_x=workload.data.train.x, config=ServingConfig()
    )
    try:
        with tracer.span("conversion.normalize"):
            engine.normalization  # noqa: B018 - computed once, shared by every scheme
        with tracer.span("serving.warm"):
            engine.warm(SERVE_SCHEME)
        with tracer.span("setup.first_batches"):
            # one batch of every size the scheduler coalesces: each new batch
            # geometry calibrates its kernels once, which is part of getting
            # ready, not of the latency of the timed requests
            images = workload.data.test.x
            for size in range(1, engine.config.max_batch_size + 1):
                for future in [engine.classify(images[i], SERVE_SCHEME) for i in range(size)]:
                    future.result(timeout=engine.config.request_timeout_s)
    except BaseException:
        engine.close()
        raise
    return workload, engine, time.perf_counter() - start


@dataclass
class LoadRecord:
    due: float
    submitted: float = 0.0
    done: Optional[float] = None
    result: object = None
    error: Optional[BaseException] = None


def open_loop(engine, images: np.ndarray, rate: float, seconds: float, seed: int) -> List[LoadRecord]:
    """Send requests on a seeded Poisson schedule from this thread alone.

    The seed fixes both the gaps and which test image each request carries.
    Futures are stamped by a done-callback, so the generator never waits on
    a reply; latency runs from each request's due time.
    """
    from repro.serving.limits import RateLimitedError
    from repro.serving.scheduler import QueueFullError

    schedule = poisson_schedule(rate, seconds, seed)
    order = list(range(len(images)))
    random.Random(seed).shuffle(order)
    records: List[LoadRecord] = []
    futures = []

    def stamp(record: LoadRecord, _future) -> None:
        record.done = time.perf_counter()

    start = time.perf_counter() + 0.05
    for index, offset in enumerate(schedule):
        record = LoadRecord(due=start + offset)
        records.append(record)
        wait = record.due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        record.submitted = time.perf_counter()
        try:
            future = engine.classify(images[order[index % len(order)]], SERVE_SCHEME)
        except (QueueFullError, RateLimitedError) as exc:
            record.error = exc
            continue
        future.add_done_callback(functools.partial(stamp, record))
        futures.append((record, future))
    concurrent.futures.wait([future for _, future in futures], timeout=120)
    for record, future in futures:
        try:
            record.result = future.result(timeout=0)
        except Exception as exc:  # noqa: BLE001 - a failed request is counted
            record.error = exc
    return records


def run_serve(name: str, seconds: float, seed: int, trace: bool, outcome: Outcome) -> Tracer:
    tracer = Tracer(enabled=trace)
    setups = []
    engine = None
    try:
        for _ in range(1 if trace else SETUP_REPEATS[name]):
            if engine is not None:
                engine.close()
                engine = None
            cold_caches()
            workload, engine, elapsed = serve_setup(tracer)
            setups.append(elapsed)
        outcome.notes.append(f"setup_s samples: {[round(s, 3) for s in setups]}")
        before = engine.stats()
        records = open_loop(engine, workload.data.test.x, SERVE_RATES[name], seconds, seed)
        after = engine.stats()
        check_serving(engine, workload, outcome)
    finally:
        if engine is not None:
            engine.close()

    latencies = []
    batches = set()
    for index, record in enumerate(records):
        ok = outcome.check(
            record.error is None
            and record.done is not None
            and 0 <= getattr(record.result, "prediction", -1) < len(record.result.scores),
            f"request due at {record.due:.3f}: {record.error!r}",
        )
        latencies.append(record.done - record.due if ok else float("inf"))
        if not ok:
            continue
        result = record.result
        batches.add((getattr(result, "replica", 0), result.batch_ms, result.batch_size))
        group = f"request-{index}"
        request = tracer.add("serving.request", record.due, record.done, group=group)
        queued = record.submitted + result.queue_ms / 1000.0
        tracer.add("serving.queue", record.submitted, queued, request, group)
        tracer.add("serving.batch", queued, queued + result.batch_ms / 1000.0, request, group)
    late = [record.submitted - record.due for record in records]
    late_tail, late_pct, _ = tail(late)
    outcome.check(
        late_tail <= 1.0 / SERVE_RATES[name],
        f"generator ran {1000 * late_tail:.1f} ms late at p{late_pct:.1f}, "
        "more than one mean gap between arrivals",
    )
    served = sum(size for _, _, size in batches)
    busy_s = sum(ms for _, ms, _ in batches) / 1000.0
    tail_s, percentile, count = tail(latencies)
    outcome.notes.append(
        f"{count} requests at {SERVE_RATES[name]:g}/s, tail_ms is p{percentile:.1f}; "
        f"mean batch {served / max(len(batches), 1):.2f}; generator late "
        f"p{late_pct:.1f} {1000 * late_tail:.2f} ms, max {1000 * max(late):.2f} ms"
    )
    if not trace:
        outcome.metrics.update(
            setup_s=median(setups),
            images_per_s=served / busy_s,
            p50_ms=1000.0 * median(latencies),
            tail_ms=1000.0 * tail_s,
        )
        return tracer

    wall = max(r.done for r in records if r.done is not None) - records[0].due
    tracer.count("serving.batches", after["batches_total"] - before["batches_total"])
    tracer.count(
        "serving.rejected",
        after["rejected_total"] - before["rejected_total"]
        + after["rate_limited_total"] - before["rate_limited_total"],
    )
    tracer.count("serving.busy_s", busy_s)
    tracer.count("serving.wall_s", wall)
    tracer.count("serving.images", served)
    tracer.count("serving.batch_count", len(batches))
    tracer.samples["serving.queue_ms"] = [
        r.result.queue_ms for r in records if r.result is not None
    ]
    tracer.samples["serving.batch_ms"] = [ms for _, ms, _ in batches]
    tracer.samples["loadgen.late_ms"] = [1000.0 * s for s in late]
    trace_serve_batch(workload, engine, seed, tracer, outcome)
    return tracer


def server_scheme():
    """The scheme a ServingEngine resolves from the notation it is sent."""
    from repro.core.hybrid import HybridCodingScheme

    return HybridCodingScheme.from_notation(SERVE_SCHEME)


def serving_sim_config(engine):
    """The simulation config a ServingEngine answers with (final scores only)."""
    from repro.snn.network import SimulationConfig

    config = engine.config
    return SimulationConfig(
        time_steps=config.time_steps,
        record_outputs_every=config.time_steps,
        seed=config.seed,
        dtype=config.dtype,
        backend=config.backend,
        early_exit_patience=config.early_exit_patience,
    )


def check_serving(engine, workload, outcome: Outcome) -> None:
    """A fixed set of images, one at a time through ``classify_sync``, gets
    the predictions an offline ``InferenceSession`` gives the same images."""
    from repro.engine.session import InferenceSession

    session = InferenceSession.from_model(
        engine.model,
        server_scheme(),
        config=serving_sim_config(engine),
        conversion=engine.config.conversion,
        normalization=engine.normalization,
        seed=engine.config.seed,
    )
    for index, image in enumerate(workload.data.test.x[:SERVE_CHECK_IMAGES]):
        served = engine.classify_sync(image, SERVE_SCHEME).prediction
        offline = int(session.run(image[None]).final_outputs.argmax(axis=1)[0])
        outcome.check(served == offline, f"check image {index}: served {served} != offline {offline}")


def trace_serve_batch(workload, engine, seed: int, tracer: Tracer, outcome: Outcome) -> None:
    """Engine stages and replay of one serving-sized batch of seeded images."""
    order = list(range(len(workload.data.test.x)))
    random.Random(seed).shuffle(order)
    x = workload.data.test.x[order[:SERVE_TRACE_BATCH]]
    with tracer.span("op.engine") as op:
        trace_batch(
            tracer, op, engine.model, engine.normalization, server_scheme(),
            serving_sim_config(engine), x, outcome,
        )
