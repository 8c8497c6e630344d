"""Serving scale-out benchmark: measured load-test curve over replica counts.

Boots real :class:`~repro.serving.http.ServingHTTPServer` instances (HTTP
over sockets, not in-process shortcuts) at increasing ``num_replicas`` and
drives each with the same open-loop bursty schedule (``loadgen``), recording
throughput and p50/p95/p99 latency per ``(num_replicas, scheme, backend)``
into ``benchmarks/results/BENCH_serving.json`` (rows keyed by
``(git_rev, scale, scheme, backend, num_replicas)`` — re-running a revision
updates its rows in place).

Acceptance: on a multi-core machine (>= 4 CPUs) the 4-replica server must
sustain >= 1.5x the single-replica throughput on the same workload — with
*unchanged answers* (a float64 identity pass compares scores across replica
counts, request for request).  On smaller runners the scaling assertion is
skipped (recorded in the report) while the curve is still measured.

Scale knobs: ``REPRO_BENCH_SERVING_REQUESTS`` / ``_BURST`` / ``_REPLICAS``
(comma list) / ``_TIME_STEPS``; e.g.
``REPRO_BENCH_SERVING_REQUESTS=8 pytest benchmarks/serving -q`` for a CI
smoke burst.  Deselect with ``-m "not perf"``.

Every served batch runs with OpenBLAS pinned to one thread by the engine
(``repro.utils.threads``), so the curve measures replica scaling, not BLAS
threading; the caller's measured BLAS thread count is part of each row's
scale key.
"""

import json
import os
import subprocess
from pathlib import Path

import numpy as np
import pytest

import loadgen
from repro.experiments.workloads import build_workload
from repro.serving.engine import ServingConfig, ServingEngine
from repro.serving.http import ServingHTTPServer
from repro.utils.timing import load_bench_json, machine_info, write_bench_json

pytestmark = pytest.mark.perf

HERE = Path(__file__).resolve().parent
BENCH_SERVING_PATH = HERE.parent / "results" / "BENCH_serving.json"

NUM_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVING_REQUESTS", "24"))
BURST_SIZE = int(os.environ.get("REPRO_BENCH_SERVING_BURST", "8"))
BURST_INTERVAL_S = float(os.environ.get("REPRO_BENCH_SERVING_BURST_INTERVAL_S", "0.05"))
TIME_STEPS = int(os.environ.get("REPRO_BENCH_SERVING_TIME_STEPS", "20"))
REPLICA_COUNTS = [
    int(count)
    for count in os.environ.get("REPRO_BENCH_SERVING_REPLICAS", "1,4").split(",")
]
SCHEME = "phase-burst"
IDENTITY_IMAGES = 6
#: acceptance floor: 4 replicas vs 1 on a multi-core machine
MIN_SCALING = 1.5
SCALING_MIN_CPUS = 4


def _git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=HERE,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def _scale() -> dict:
    return {
        "requests": NUM_REQUESTS,
        "burst_size": BURST_SIZE,
        "burst_interval_s": BURST_INTERVAL_S,
        "time_steps": TIME_STEPS,
        # part of the row key: curves measured under different BLAS pools
        # are separate rows
        "blas_threads": machine_info()["blas_threads"],
    }


def _upsert_rows(rows: list) -> None:
    """Keyed upsert into BENCH_serving.json (one row per measured
    (git_rev, scale, scheme, backend, num_replicas))."""
    history = load_bench_json(BENCH_SERVING_PATH) or {
        "description": (
            "serving load-test curve: open-loop bursty HTTP load vs "
            "replica count (see benchmarks/serving/)"
        ),
        "runs": [],
    }
    runs = history.setdefault("runs", [])
    for row in rows:
        key = (
            row["git_rev"], json.dumps(row["scale"], sort_keys=True),
            row["scheme"], row["backend"], row["num_replicas"],
        )
        for index, existing in enumerate(runs):
            existing_key = (
                existing.get("git_rev"),
                json.dumps(existing.get("scale", {}), sort_keys=True),
                existing.get("scheme"),
                existing.get("backend"),
                existing.get("num_replicas"),
            )
            if existing_key == key:
                runs[index] = row
                break
        else:
            runs.append(row)
    write_bench_json(BENCH_SERVING_PATH, history)


@pytest.fixture(scope="module")
def serving_workload():
    """Tiny MNIST MLP workload: fast to train, fast to serve, deterministic."""
    return build_workload(
        dataset="mnist", model="mlp", seed=0, samples_per_class=8, epochs=3
    )


@pytest.fixture(scope="module")
def load_curve(serving_workload):
    """Measure every configured replica count once; shared by the tests."""
    test_images = serving_workload.data.test.x
    pool = [test_images[i % len(test_images)].tolist() for i in range(BURST_SIZE)]
    identity_images = [
        test_images[i % len(test_images)].tolist() for i in range(IDENTITY_IMAGES)
    ]
    curve = {}
    for num_replicas in REPLICA_COUNTS:
        engine = ServingEngine(
            serving_workload.model,
            serving_workload.data.train.x,
            ServingConfig(
                max_batch_size=BURST_SIZE,
                max_queue=max(64, NUM_REQUESTS),
                num_replicas=num_replicas,
                time_steps=TIME_STEPS,
                dtype="float64",  # the identity pass compares exact bits
                seed=0,
            ),
        )
        server = ServingHTTPServer(engine, port=0, default_scheme=SCHEME).start()
        try:
            engine.warm(SCHEME)  # measure serving, not conversion
            result = loadgen.run_load(
                server.url,
                pool,
                num_requests=NUM_REQUESTS,
                burst_size=BURST_SIZE,
                burst_interval_s=BURST_INTERVAL_S,
                scheme=SCHEME,
            )
            summary = result.summarise()
            # identity pass: sequential single requests ride in batches of
            # one, so the coalescing (and hence the float64 summation order)
            # is identical at every replica count
            scores = []
            for image in identity_images:
                status, body = loadgen._post_classify(
                    server.url, {"image": image, "scheme": SCHEME}, timeout_s=120.0
                )
                assert status == 200, f"identity request failed: {body}"
                scores.append(body["scores"])
            stats = engine.stats()
            curve[num_replicas] = {
                "summary": summary,
                "identity_scores": np.asarray(scores, dtype=np.float64),
                "replica_utilisation": stats["sessions"][SCHEME]["replica_utilisation"],
                "batches_per_replica": stats["sessions"][SCHEME]["batches_per_replica"],
            }
        finally:
            server.close()
    return curve


def test_load_curve_measured_and_recorded(load_curve):
    """Every configured replica count served the full burst schedule; the
    per-(num_replicas, scheme, backend) rows land in BENCH_serving.json."""
    rows = []
    for num_replicas, entry in sorted(load_curve.items()):
        summary = entry["summary"]
        assert summary["requests"] == NUM_REQUESTS
        assert summary["ok"] == NUM_REQUESTS, (
            f"{summary['requests'] - summary['ok']} request(s) failed at "
            f"num_replicas={num_replicas}: {summary['status_counts']}"
        )
        assert summary["throughput_rps"] > 0
        assert summary["latency_ms"]["p50"] <= summary["latency_ms"]["p95"]
        assert summary["latency_ms"]["p95"] <= summary["latency_ms"]["p99"]
        rows.append(
            {
                "git_rev": _git_revision(),
                "scale": _scale(),
                "scheme": SCHEME,
                "backend": "numpy",
                "num_replicas": num_replicas,
                "cpu_count": os.cpu_count(),
                "simulation_blas_threads": machine_info()["simulation_blas_threads"],
                "throughput_rps": summary["throughput_rps"],
                "latency_ms": summary["latency_ms"],
                "status_counts": summary["status_counts"],
                "wall_s": summary["wall_s"],
                "replica_utilisation": entry["replica_utilisation"],
                "batches_per_replica": entry["batches_per_replica"],
            }
        )
    _upsert_rows(rows)
    print(f"\n[BENCH_serving rows written to {BENCH_SERVING_PATH}]")
    for row in rows:
        print(
            f"  num_replicas={row['num_replicas']}: "
            f"{row['throughput_rps']} req/s, "
            f"p50={row['latency_ms']['p50']}ms p99={row['latency_ms']['p99']}ms"
        )


def test_answers_are_identical_across_replica_counts(load_curve):
    """Scaling out must not change a single bit of any answer (float64)."""
    reference_count = min(load_curve)
    reference = load_curve[reference_count]["identity_scores"]
    for num_replicas, entry in load_curve.items():
        assert np.array_equal(entry["identity_scores"], reference), (
            f"num_replicas={num_replicas} answers diverged from "
            f"num_replicas={reference_count}"
        )


def test_replica_scaling_on_multicore(load_curve):
    """The tentpole acceptance: >= 1.5x throughput at 4 replicas vs 1.

    Only meaningful with real parallel hardware — skipped (but the curve is
    still recorded by the test above) on machines with < 4 CPUs.
    """
    cpus = os.cpu_count() or 1
    if cpus < SCALING_MIN_CPUS:
        pytest.skip(f"scaling assertion needs >= {SCALING_MIN_CPUS} CPUs, have {cpus}")
    if 1 not in load_curve or 4 not in load_curve:
        pytest.skip(f"need replica counts 1 and 4, measured {sorted(load_curve)}")
    single = load_curve[1]["summary"]["throughput_rps"]
    quad = load_curve[4]["summary"]["throughput_rps"]
    assert quad >= MIN_SCALING * single, (
        f"4-replica throughput {quad} req/s is below {MIN_SCALING}x the "
        f"single-replica {single} req/s"
    )


def test_burst_overload_is_shed_with_429(serving_workload):
    """Under a deliberately undersized queue the server answers what it can
    and bounces the rest with 429 — it never hangs or drops connections."""
    engine = ServingEngine(
        serving_workload.model,
        serving_workload.data.train.x,
        ServingConfig(
            max_batch_size=2,
            max_queue=2,
            time_steps=TIME_STEPS,
            seed=0,
        ),
    )
    server = ServingHTTPServer(engine, port=0, default_scheme=SCHEME).start()
    try:
        engine.warm(SCHEME)
        image = serving_workload.data.test.x[0].tolist()
        result = loadgen.run_load(
            server.url,
            [image],
            num_requests=16,
            burst_size=16,  # one big burst against a queue of 2
            burst_interval_s=0.0,
            scheme=SCHEME,
        )
        summary = result.summarise()
        statuses = set(summary["status_counts"])
        assert statuses <= {"200", "429"}, summary["status_counts"]
        assert summary["ok"] >= 1
        # every rejection carried machine-readable retry guidance
        for record in result.records:
            if record.status == 429:
                assert record.body is not None
                assert record.body["retry_after_s"] > 0
    finally:
        server.close()
