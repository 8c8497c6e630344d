"""Tests for the HTTP front end (repro.serving.http) and the ``repro serve``
CLI subcommand (start → answer → drain on SIGTERM)."""

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.serving.engine import ServingConfig, ServingEngine
from repro.serving.http import ServingHTTPServer
from repro.utils.threads import blas_thread_info

TIME_STEPS = 12


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.load(response)


def _post(url, payload, headers=None):
    status, body, _ = _post_full(url, payload, headers)
    return status, body


def _post_full(url, payload, headers=None):
    """POST returning ``(status, body, response_headers)``."""
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json", **(headers or {})}
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.load(response), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error), dict(error.headers)


@pytest.fixture(scope="module")
def served(trained_mlp, tiny_image_split):
    """An in-process engine + HTTP server on an ephemeral port."""
    engine = ServingEngine(
        trained_mlp,
        tiny_image_split.train.x,
        ServingConfig(
            max_batch_size=4, max_wait_ms=5.0, max_queue=4, time_steps=TIME_STEPS, seed=0
        ),
    )
    server = ServingHTTPServer(engine, port=0, default_scheme="phase-burst").start()
    yield server, engine, tiny_image_split.test.x
    server.close()


class TestEndpoints:
    def test_healthz(self, served):
        server, _, _ = served
        status, body = _get(server.url + "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert "queue_depth" in body

    def test_classify_roundtrip_uses_default_scheme(self, served):
        server, _, test_x = served
        status, body = _post(server.url + "/v1/classify", {"image": test_x[0].tolist()})
        assert status == 200
        assert body["scheme"] == "phase-burst"
        assert body["time_steps"] == TIME_STEPS
        assert 0 <= body["prediction"] < len(body["scores"])
        assert body["total_ms"] >= body["batch_ms"]
        assert body["frozen_at"] is None

    def test_classify_explicit_scheme_and_flat_image(self, served):
        server, _, test_x = served
        status, body = _post(
            server.url + "/v1/classify",
            {"image": test_x[1].ravel().tolist(), "scheme": "real-rate"},
        )
        assert status == 200
        assert body["scheme"] == "real-rate"

    def test_schemes_endpoint_shares_registry_metadata(self, served):
        from repro.core.registry import scheme_metadata

        server, _, _ = served
        status, body = _get(server.url + "/v1/schemes")
        assert status == 200
        assert body["codings"] == scheme_metadata()
        assert "input codings" in body["notation"]

    def test_metrics_endpoint(self, served):
        server, _, test_x = served
        _post(server.url + "/v1/classify", {"image": test_x[2].tolist()})
        status, body = _get(server.url + "/metrics")
        assert status == 200
        assert body["requests_total"] >= 1
        assert "batch_size_histogram" in body
        assert set(body["latency_ms"]) == {"count", "p50", "p95", "p99"}
        assert set(body["queue_wait_ms"]) == {"count", "p50", "p95", "p99"}
        assert "phase-burst" in body["sessions"]
        scheme_stats = body["sessions"]["phase-burst"]
        assert scheme_stats["num_replicas"] == 1
        assert len(scheme_stats["replica_utilisation"]) == 1
        assert "rate_limited_total" in body["rate_limits"]
        # the BLAS thread counts in effect: the caller's pool and the
        # single thread every served simulation is pinned to
        assert set(body["runtime"]) == {"blas_threads", "simulation_blas_threads"}
        assert body["runtime"] == blas_thread_info()
        if body["runtime"]["blas_threads"] is not None:
            assert body["runtime"]["simulation_blas_threads"] == 1

    def test_health_after_traffic_lists_loaded_schemes(self, served):
        server, _, _ = served
        _, body = _get(server.url + "/healthz")
        assert "phase-burst" in body["schemes_loaded"]


class TestErrorMapping:
    def test_unknown_path_404(self, served):
        server, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/nope", timeout=30)
        assert excinfo.value.code == 404

    def test_missing_image_400(self, served):
        server, _, _ = served
        status, body = _post(server.url + "/v1/classify", {"scheme": "phase-burst"})
        assert status == 400
        assert "image" in body["error"]

    def test_bad_json_400(self, served):
        server, _, _ = served
        request = urllib.request.Request(
            server.url + "/v1/classify",
            data=b"not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_wrong_shape_400(self, served):
        server, _, _ = served
        status, body = _post(server.url + "/v1/classify", {"image": [[1.0, 2.0]]})
        assert status == 400
        assert "does not match" in body["error"]

    def test_error_before_body_read_closes_keepalive_connection(self, served):
        """A POST rejected before its body is consumed must not keep the
        connection alive — the unread bytes would corrupt the next request."""
        import http.client

        server, _, _ = served
        host, port = server.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request(
                "POST",
                "/nope",
                body=b'{"image": [1, 2, 3]}',
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()

    def test_unknown_scheme_400_with_hint(self, served):
        server, _, test_x = served
        status, body = _post(
            server.url + "/v1/classify",
            {"image": test_x[0].tolist(), "scheme": "phse-burst"},
        )
        assert status == 400
        assert "did you mean" in body["error"]

    def test_invalid_priority_400(self, served):
        server, _, test_x = served
        status, body = _post(
            server.url + "/v1/classify",
            {"image": test_x[0].tolist(), "priority": "urgent"},
        )
        assert status == 400
        assert "priority" in body["error"]

    def test_priority_field_accepted(self, served):
        server, _, test_x = served
        status, body = _post(
            server.url + "/v1/classify",
            {"image": test_x[0].tolist(), "priority": "batch"},
        )
        assert status == 200
        assert body["scheme"] == "phase-burst"

    def test_non_string_client_id_400(self, served):
        server, _, test_x = served
        status, body = _post(
            server.url + "/v1/classify",
            {"image": test_x[0].tolist(), "client_id": 7},
        )
        assert status == 400
        assert "client_id" in body["error"]

    def test_admission_control_maps_to_429(self, trained_mlp, tiny_image_split):
        """Saturate the scheme queue while its session is wedged; the next
        HTTP request must bounce with 429 instead of queueing forever.

        Uses a dedicated single-request-batch server (``max_batch_size=1``)
        so the wedged batch cannot absorb the backlog that fills the queue.
        """
        test_x = tiny_image_split.test.x
        engine = ServingEngine(
            trained_mlp,
            tiny_image_split.train.x,
            ServingConfig(
                max_batch_size=1, max_wait_ms=0.0, max_queue=3,
                time_steps=TIME_STEPS, seed=0,
            ),
        )
        server = ServingHTTPServer(engine, port=0, default_scheme="phase-burst").start()
        try:
            scheme_server = engine._scheme_server("phase-burst")
            with scheme_server.sessions[0]._run_lock:  # wedge the batch executor
                # let the worker pull one item into the stuck batch, then
                # fill the bounded queue behind it
                probe = engine.classify(test_x[0])
                deadline = time.monotonic() + 10
                while (
                    scheme_server.batcher.queue_depth > 0
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.005)
                backlog = [
                    engine.classify(test_x[0])
                    for _ in range(engine.config.max_queue)
                ]
                status, body, headers = _post_full(
                    server.url + "/v1/classify", {"image": test_x[0].tolist()}
                )
            assert status == 429
            assert "full" in body["error"]
            # the rejection tells the client when to come back
            assert int(headers["Retry-After"]) >= 1
            assert body["retry_after_s"] > 0.0
            # once the session is released every queued request still resolves
            assert probe.result(timeout=60).prediction >= 0
            for future in backlog:
                assert future.result(timeout=60).prediction >= 0
        finally:
            server.close()

    def test_rate_limited_client_maps_to_429_with_retry_after(
        self, trained_mlp, tiny_image_split
    ):
        """A client over its token-bucket budget gets 429 + Retry-After while
        an independently keyed client sails through."""
        test_x = tiny_image_split.test.x
        engine = ServingEngine(
            trained_mlp,
            tiny_image_split.train.x,
            ServingConfig(
                max_batch_size=1, max_wait_ms=0.0, time_steps=8,
                max_rps=0.001, rate_burst=1.0, seed=0,
            ),
        )
        server = ServingHTTPServer(engine, port=0, default_scheme="phase-burst").start()
        try:
            payload = {"image": test_x[0].tolist()}
            key = {"X-API-Key": "tenant-a"}
            status, _, _ = _post_full(server.url + "/v1/classify", payload, key)
            assert status == 200  # burst token
            status, body, headers = _post_full(
                server.url + "/v1/classify", payload, key
            )
            assert status == 429
            assert "rate limit" in body["error"]
            assert int(headers["Retry-After"]) >= 1
            assert body["retry_after_s"] > 0.0
            # a different API key has its own bucket
            status, _, _ = _post_full(
                server.url + "/v1/classify", payload, {"X-API-Key": "tenant-b"}
            )
            assert status == 200
            # the body client_id field keys the limiter too
            status, _, _ = _post_full(
                server.url + "/v1/classify", {**payload, "client_id": "tenant-a"}
            )
            assert status == 429
            assert engine.metrics.rate_limited_total == 2
        finally:
            server.close()


class TestCliServeSmoke:
    def test_serve_starts_answers_and_drains_on_sigterm(self, tmp_path):
        """`repro serve` over a tiny synthetic workload: wait for /healthz,
        POST one /v1/classify, SIGTERM, assert a clean exit."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        repo_root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src") + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--host", "127.0.0.1", "--port", str(port),
                "--dataset", "mnist", "--model", "mlp",
                "--samples-per-class", "6", "--epochs", "2",
                "--time-steps", "10", "--max-wait-ms", "2",
                "--scheme", "phase-burst",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        url = f"http://127.0.0.1:{port}"
        try:
            deadline = time.monotonic() + 120
            health = None
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    pytest.fail(
                        f"repro serve exited early:\n{process.stdout.read()}"
                    )
                try:
                    _, health = _get(url + "/healthz")
                    break
                except (urllib.error.URLError, ConnectionError, OSError):
                    time.sleep(0.25)
            assert health is not None, "server never became healthy"
            assert health["status"] == "ok"

            image = np.zeros((1, 28, 28)).tolist()
            status, body = _post(url + "/v1/classify", {"image": image})
            assert status == 200
            assert body["scheme"] == "phase-burst"

            process.send_signal(signal.SIGTERM)
            stdout, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate(timeout=30)
        assert process.returncode == 0, f"unclean exit {process.returncode}:\n{stdout}"
        assert "drained cleanly" in stdout
        assert "listening on" in stdout
