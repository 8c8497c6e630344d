"""The engine's single-thread BLAS scope (``repro.utils.threads``).

Two contracts:

* float64 results do not depend on the caller's BLAS thread count: with the
  loaded OpenBLAS set to 2 threads, the MNIST golden case of
  ``benchmarks/perf/seed_reference.json`` still reproduces the seed engine's
  logits bit for bit (training, normalisation and simulation all pin);
* the pin never leaks: inside every pinned entry point the pool reads 1
  thread, and after the call returns or raises, and after nested or
  concurrent scopes exit, it reads the caller's count again.
"""

import contextlib
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.conversion.normalization as normalization
import repro.experiments.workloads as workloads
import repro.utils.threads as threads
from repro.backends import backend_scope
from repro.conversion.normalization import normalize_weights
from repro.core.hybrid import HybridCodingScheme
from repro.engine.build import build_network
from repro.engine.plan import plan_simulation
from repro.engine.run import execute, simulate
from repro.engine.session import InferenceSession
from repro.experiments.sweep import make_pipeline
from repro.models.mlp import build_mlp
from repro.snn.network import SimulationConfig
from repro.utils.dtypes import simulation_precision
from repro.utils.logging import get_logger
from repro.utils.threads import blas_thread_info, single_blas_thread

GOLDEN_PATH = Path(__file__).parent.parent / "benchmarks" / "perf" / "seed_reference.json"
#: a caller thread count distinct from both 1 (the pin) and the usual default
CALLER_THREADS = 3
TIME_STEPS = 12

logger = get_logger("tests.blas_threads")


@contextlib.contextmanager
def _caller_pool(count):
    """Set the loaded OpenBLAS pool to ``count`` threads, as a caller of
    ``repro`` might, and restore the previous count after; yields the getter.
    Skips, with the reason logged, only when no controls are exposed."""
    controls = threads.openblas_controls()
    if controls is None:
        reason = "no OpenBLAS thread controls exposed by the loaded numpy"
        logger.warning("skipping BLAS thread test: %s", reason)
        pytest.skip(reason)
    setter, getter = controls
    previous = getter()
    setter(count)
    try:
        assert getter() == count
        yield getter
    finally:
        setter(previous)


@pytest.fixture
def caller_threads():
    with _caller_pool(CALLER_THREADS) as getter:
        yield getter


def _mnist_golden_case():
    return next(
        c for c in json.loads(GOLDEN_PATH.read_text())["cases"]
        if c["name"] == "mnist-small_cnn"
    )


def _golden_scheme(notation):
    v_th = 0.125 if notation.endswith("burst") else None
    return HybridCodingScheme.from_notation(notation, v_th=v_th)


@pytest.mark.skipif(not GOLDEN_PATH.exists(), reason="golden reference not recorded")
def test_float64_golden_holds_with_two_blas_threads(monkeypatch):
    """The MNIST golden case, trained, normalised and simulated from scratch
    (an empty workload cache) while the caller's pool has 2 threads."""
    case = _mnist_golden_case()
    monkeypatch.setattr(workloads, "_WORKLOAD_CACHE", {})
    with _caller_pool(2), backend_scope("numpy"), simulation_precision("float64"):
        workload = workloads.build_workload(
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
            run = pipeline.run_scheme(_golden_scheme(notation))
            assert run.outputs_final.argmax(axis=1).tolist() == expected["predictions"], notation
            assert run.total_spikes == expected["total_spikes"], notation
            assert np.array_equal(
                run.outputs_final, np.asarray(expected["final_logits"], dtype=np.float64)
            ), f"{notation}: float64 logits drifted under 2 BLAS threads"


@pytest.mark.skipif(not GOLDEN_PATH.exists(), reason="golden reference not recorded")
def test_float64_golden_through_a_direct_execute(monkeypatch):
    """``execute(plan.prepare(x))`` called directly, with no session or
    ``simulate`` around it, while the caller's pool has 2 threads: the step
    loop reads 1 thread, the MNIST golden logits come out bit for bit, and
    the caller's count is back afterwards."""
    case = _mnist_golden_case()
    with _caller_pool(2) as getter, backend_scope("numpy"), simulation_precision("float64"):
        workload = workloads.build_workload(
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
        x = workload.data.test.x[: case["num_images"]]
        config = SimulationConfig(time_steps=case["time_steps"], seed=0)
        for notation, expected in case["runs"].items():
            network = pipeline.build_snn(_golden_scheme(notation))
            seen = []
            _probe(monkeypatch, network.layers[0], "step", getter, seen)
            result = execute(plan_simulation(network, config).prepare(x))
            assert seen and set(seen) == {1}, notation
            assert getter() == 2
            assert np.array_equal(
                result.final_outputs, np.asarray(expected["final_logits"], dtype=np.float64)
            ), f"{notation}: float64 logits drifted through a direct execute"


# -- the scope never leaks ---------------------------------------------------

def _probe(monkeypatch, owner, name, getter, seen, error=None):
    """Wrap ``owner.name`` so each call records the live BLAS thread count
    and then runs the original, or raises ``error``."""
    original = getattr(owner, name)

    def probe(*args, **kwargs):
        seen.append(getter())
        if error is not None:
            raise error
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, probe)


def _entry_point(name, monkeypatch, getter, seen, error, model, data):
    """Instrument one pinned entry point and return a thunk calling it.
    Simulations are probed at their first layer's step, inside the loop."""
    scheme = HybridCodingScheme.from_notation("phase-burst")
    config = SimulationConfig(time_steps=TIME_STEPS)
    x = data.test.x[:4]
    if name in ("simulate", "execute"):
        network = build_network(model, scheme, calibration_x=data.train.x[:32], seed=0)
        _probe(monkeypatch, network.layers[0], "step", getter, seen, error)
        if name == "simulate":
            return lambda: simulate(network, x, config)
        plan = plan_simulation(network, config)
        return lambda: execute(plan.prepare(x))
    if name == "session.run":
        session = InferenceSession.from_model(
            model, scheme, config=config, calibration_x=data.train.x[:32], seed=0
        )
        _probe(monkeypatch, session.network.layers[0], "step", getter, seen, error)
        return lambda: session.run(x)
    if name == "fit":
        fresh = build_mlp(data.input_shape, [8], data.num_classes, seed=0)
        _probe(monkeypatch, fresh, "forward", getter, seen, error)
        return lambda: fresh.fit(data.train.x[:32], data.train.y[:32], epochs=1)
    assert name == "normalize_weights"
    _probe(monkeypatch, normalization, "activation_scales", getter, seen, error)
    return lambda: normalize_weights(model, calibration_x=data.train.x[:32])


ENTRY_POINTS = ["simulate", "execute", "session.run", "fit", "normalize_weights"]


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_pins_and_restores(
    name, caller_threads, monkeypatch, trained_mlp, tiny_image_split
):
    seen = []
    call = _entry_point(name, monkeypatch, caller_threads, seen, None, trained_mlp, tiny_image_split)
    call()
    assert seen and set(seen) == {1}
    assert caller_threads() == CALLER_THREADS


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_restores_when_it_raises(
    name, caller_threads, monkeypatch, trained_mlp, tiny_image_split
):
    seen = []
    error = RuntimeError("probe failure")
    call = _entry_point(name, monkeypatch, caller_threads, seen, error, trained_mlp, tiny_image_split)
    with pytest.raises(RuntimeError, match="probe failure"):
        call()
    assert seen == [1]
    assert caller_threads() == CALLER_THREADS


def test_nested_scopes_restore_only_at_the_outermost_exit(caller_threads):
    with single_blas_thread():
        assert caller_threads() == 1
        # the caller's count stays observable while the pin is active
        assert blas_thread_info() == {"blas_threads": CALLER_THREADS, "simulation_blas_threads": 1}
        with single_blas_thread():
            assert caller_threads() == 1
        assert caller_threads() == 1
    assert caller_threads() == CALLER_THREADS


def test_decorated_call_inside_a_scope_keeps_the_pin(caller_threads):
    @single_blas_thread()
    def pinned():
        return caller_threads()

    assert pinned() == 1
    assert caller_threads() == CALLER_THREADS
    with single_blas_thread():
        assert pinned() == 1
        assert caller_threads() == 1
    assert caller_threads() == CALLER_THREADS


def test_concurrent_replica_sessions(caller_threads, monkeypatch, trained_mlp, tiny_image_split):
    """Two threads run two replicas at once: both runs overlap inside their
    scopes (a barrier holds them), both see 1 thread, and the caller's
    count is back once both return."""
    pool = InferenceSession.replica_pool(
        trained_mlp,
        HybridCodingScheme.from_notation("phase-burst"),
        count=2,
        config=SimulationConfig(time_steps=TIME_STEPS),
        calibration_x=tiny_image_split.train.x[:32],
        seed=0,
    )
    barrier = threading.Barrier(2, timeout=60)
    seen = []

    def overlap(layer):
        """Hold both runs at their first and last step of the first layer."""
        original = layer.step

        def step(incoming, t, *args):
            if t == 0:
                barrier.wait()
                seen.append(caller_threads())
            out = original(incoming, t, *args)
            if t == TIME_STEPS - 1:
                barrier.wait()
            return out

        monkeypatch.setattr(layer, "step", step)

    for session in pool:
        overlap(session.network.layers[0])
    errors = []

    def serve(session):
        try:
            session.run(tiny_image_split.test.x[:3])
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    workers = [threading.Thread(target=serve, args=(session,)) for session in pool]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors, errors
    assert seen == [1, 1]
    assert caller_threads() == CALLER_THREADS


def test_scope_count_survives_thread_contention(caller_threads):
    """More threads than cores enter and leave scopes with a short switch
    interval: a lost update to the scope count would let a body read the
    caller's count (an early restore) or leave the pin on afterwards."""
    readings = []

    def churn():
        for _ in range(200):
            with single_blas_thread():
                readings.append(caller_threads())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert readings == [1] * (8 * 200)
    assert caller_threads() == CALLER_THREADS


def test_scope_is_inert_without_controls(monkeypatch):
    monkeypatch.setattr(threads, "openblas_controls", lambda: None)
    with single_blas_thread():
        assert blas_thread_info() == {"blas_threads": None, "simulation_blas_threads": None}
