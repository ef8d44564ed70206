"""Tests for the HTTP front-end of the labeling service.

Round-trips real HTTP requests (urllib against an ephemeral-port
server) through submit → poll → healthz, and checks the back-pressure
contract: a submission that would push queued pixels over the bound is
shed with 429 + ``Retry-After`` instead of being absorbed.
"""

from __future__ import annotations

import io
import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import Goggles, GogglesConfig
from repro.obs import MetricsRegistry
from repro.serving import LabelingHTTPServer, LabelingService, TenantConfig, TenantRegistry, serve_http

TIMEOUT = 120.0
CONFIG = GogglesConfig(n_classes=2, seed=0, top_z=3, layers=(1, 2), n_jobs=2)
SUBMIT = "/v1/tenants/default/submit"
POLL = "/v1/tenants/default/poll"
BOUNDED_SUBMIT = "/v1/tenants/bounded/submit"
SUBMIT_ROUTE = "/v1/tenants/{id}/submit"  # the bounded route label


def _get(url: str) -> tuple[int, dict]:
    with urllib.request.urlopen(url, timeout=30.0) as response:
        return response.status, json.loads(response.read())


def _post(url: str, body: bytes, content_type: str) -> tuple[int, dict, dict]:
    request = urllib.request.Request(url, data=body, headers={"Content-Type": content_type}, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _npy_bytes(images: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, images)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def http_setup(vgg, small_surface):
    """One tenant registry + HTTP server shared by the module's tests.

    Tenant ``default`` is unbounded; ``bounded`` has a 1-pixel queue
    bound, so every submission to it sheds deterministically (the check
    runs before the queue is touched).  Yields the server, the
    ``default`` tenant's service, the images and the seed size.
    """
    images = small_surface.images
    n0 = images.shape[0] - 6
    dev = small_surface.sample_dev_set(per_class=3, seed=0)
    assert dev.indices.max() < n0
    tenants = TenantRegistry(base_config=CONFIG, model=vgg, metrics=MetricsRegistry())
    service = tenants.register("default", images[:n0], dev).service
    tenants.register("bounded", images[:n0], dev, TenantConfig(max_queued_pixels=1, retry_after=7.0))
    server = serve_http(tenants)
    yield server, service, images, n0
    server.shutdown()
    tenants.close()


class TestRoutes:
    def test_submit_poll_roundtrip_npy(self, http_setup):
        server, service, images, n0 = http_setup
        code, payload, _ = _post(
            f"{server.url}{SUBMIT}",
            _npy_bytes(images[n0 : n0 + 3]),
            "application/octet-stream",
        )
        assert code == 202
        ticket = payload["ticket"]
        # Poll over HTTP until the background worker resolves the batch.
        deadline = time.monotonic() + TIMEOUT
        while True:
            code, status = _get(f"{server.url}{POLL}/{ticket}")
            assert code == 200
            if status["state"] != "pending":
                break
            assert time.monotonic() < deadline, "ticket never resolved"
            time.sleep(0.1)
        assert status["state"] == "done"
        labels = np.asarray(status["probabilistic_labels"])
        assert labels.shape == (3, 2)
        np.testing.assert_allclose(labels.sum(axis=1), 1.0, atol=1e-8)
        # The HTTP answer is exactly the service's answer.
        direct = service.result(ticket, timeout=TIMEOUT)
        np.testing.assert_array_equal(labels, direct.probabilistic_labels)
        assert status["predictions"] == direct.predictions.tolist()

    def test_submit_json_body(self, http_setup):
        server, service, images, n0 = http_setup
        body = json.dumps({"images": images[n0 + 3 : n0 + 4].tolist()}).encode()
        code, payload, _ = _post(f"{server.url}{SUBMIT}", body, "application/json")
        assert code == 202
        status = service.result(payload["ticket"], timeout=TIMEOUT)
        assert status.done

    def test_healthz_reports_load(self, http_setup):
        server, service, _, n0 = http_setup
        code, payload = _get(f"{server.url}/healthz")
        assert code == 200
        assert payload["status"] == "ok"
        health = payload["tenants"]["default"]
        assert health["mode"] == "batch"
        assert health["corpus_size"] >= n0
        assert health["queued_pixels"] == 0
        assert health["max_queued_pixels"] is None
        assert health["queue_fill"] is None  # no bound configured
        assert health["tickets_outstanding"] == service.tickets_outstanding
        assert health["n_batches"] >= 0
        assert health["online"] is None  # batch mode carries no online stats

    def test_healthz_queue_fill_against_bound(self, http_setup):
        server, *_ = http_setup
        _, health = _get(f"{server.url}/healthz?tenant=bounded")
        assert health["max_queued_pixels"] == 1
        # The shed-before-429 signal a load balancer watches.
        assert health["queue_fill"] == pytest.approx(health["queued_pixels"] / 1)

    def test_healthz_reports_online_session(self, vgg, small_surface):
        """An online-mode service surfaces the session's step/drift
        snapshot through /healthz."""
        from repro.online import OnlineConfig

        images = small_surface.images
        n0 = images.shape[0] - 6
        dev = small_surface.sample_dev_set(per_class=3, seed=0)
        config = GogglesConfig(n_classes=2, seed=0, top_z=3, layers=(1, 2))
        tenants = TenantRegistry(base_config=config, model=vgg, metrics=MetricsRegistry())
        online = OnlineConfig(drift_threshold=100.0)
        service = tenants.register(
            "default", images[:n0], dev, TenantConfig(mode="online", online=online)
        ).service
        server = serve_http(tenants)
        try:
            code, payload, _ = _post(
                f"{server.url}{SUBMIT}", _npy_bytes(images[n0:]), "application/octet-stream"
            )
            assert code == 202
            assert service.result(payload["ticket"], timeout=TIMEOUT).done
            _, health = _get(f"{server.url}/healthz?tenant=default")
            assert health["mode"] == "online"
            online = health["online"]
            assert online is not None
            assert online["step"] >= 1
            assert online["absorbed"] == 6
            assert online["refits"] == 0
            assert online["drift_threshold"] == 100.0
            assert "ewma_log_likelihood" in online
        finally:
            server.shutdown()
            tenants.close()

    def test_unknown_ticket_404(self, http_setup):
        server, *_ = http_setup
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}{POLL}/t999999", timeout=30.0)
        assert excinfo.value.code == 404

    def test_unknown_route_404(self, http_setup):
        server, *_ = http_setup
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/nope", timeout=30.0)
        assert excinfo.value.code == 404

    def test_garbage_body_400(self, http_setup):
        server, *_ = http_setup
        code, payload, _ = _post(f"{server.url}{SUBMIT}", b"not an array", "application/octet-stream")
        assert code == 400
        assert "error" in payload

    def test_wrong_shape_400(self, http_setup):
        server, *_ = http_setup
        body = json.dumps({"images": [1.0, 2.0]}).encode()
        code, payload, _ = _post(f"{server.url}{SUBMIT}", body, "application/json")
        assert code == 400
        assert "(M, C, H, W)" in payload["error"]["message"]


class TestBackPressure:
    def test_429_with_retry_after_when_over_bound(self, http_setup):
        server, _, images, n0 = http_setup
        code, payload, headers = _post(
            f"{server.url}{BOUNDED_SUBMIT}",
            _npy_bytes(images[n0 : n0 + 1]),
            "application/octet-stream",
        )
        assert code == 429
        assert headers["Retry-After"] == "7"
        assert payload["error"]["max_queued_pixels"] == 1
        # healthz still serves; the bound is reported.
        _, health = _get(f"{server.url}/healthz?tenant=bounded")
        assert health["max_queued_pixels"] == 1

    def test_submit_bound_is_atomic(self, http_setup):
        """The bound check lives inside submit, under the service lock,
        so concurrent submitters cannot jointly overshoot it."""
        from repro.serving import BackPressureError

        _, service, images, n0 = http_setup
        batch = images[n0 : n0 + 1]
        bound = int(batch.size * 1.5)  # room for exactly one batch
        import threading

        outcomes: list[str] = []
        lock = threading.Lock()

        def try_submit() -> None:
            try:
                ticket = service.submit(batch, max_queued_pixels=bound)
                service.result(ticket, timeout=TIMEOUT)
                with lock:
                    outcomes.append("accepted")
            except BackPressureError as error:
                assert error.bound == bound
                with lock:
                    outcomes.append("shed")

        threads = [threading.Thread(target=try_submit) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=TIMEOUT)
        assert len(outcomes) == 6
        assert "accepted" in outcomes  # at least one got through
        # Never more than one batch in the backlog at a time means at
        # most ceil = bound//batch.size accepted *concurrently*; the
        # sequential stragglers may still land after drains, so the
        # strong invariant is: nothing ever exceeded the bound inside
        # submit — asserted by construction (no exception other than
        # BackPressureError) — and shedding actually happened under
        # contention unless the worker drained faster than submission.
        assert service.queued_pixels == 0

    def test_queued_pixels_counts_backlog(self, vgg, small_surface):
        """queued_pixels covers both the queue and the in-flight batch."""
        goggles = Goggles(GogglesConfig(n_classes=2, seed=0, top_z=3, layers=(1, 2)), model=vgg)
        dev = small_surface.sample_dev_set(per_class=3, seed=0)
        service = LabelingService(goggles, dev)
        assert service.queued_pixels == 0
        images = small_surface.images
        n0 = images.shape[0] - 4
        service.start(images[:n0])
        with service:
            tickets = [service.submit(images[n0 + i : n0 + i + 1]) for i in range(4)]
            for ticket in tickets:
                assert service.result(ticket, timeout=TIMEOUT).done
        assert service.queued_pixels == 0  # fully drained


class TestObservability:
    def test_metrics_route_serves_prometheus_text(self, http_setup):
        server, *_ = http_setup
        with urllib.request.urlopen(f"{server.url}/metrics", timeout=30.0) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode("utf-8")
        # The serving families are present and every line is well-formed.
        assert "goggles_http_requests_total" in text
        assert "goggles_service_submits_total" in text
        assert "goggles_service_queued_pixels" in text
        for line in text.splitlines():
            assert line.startswith("#") or " " in line, f"malformed line {line!r}"

    def test_http_request_counters_reconcile(self, http_setup):
        shared, service, images, n0 = http_setup
        registry = MetricsRegistry()
        server = LabelingHTTPServer(shared.tenants, registry=registry)
        server.serve_in_background()
        try:
            code, payload, _ = _post(
                f"{server.url}{SUBMIT}", _npy_bytes(images[n0 : n0 + 1]), "application/octet-stream"
            )
            assert code == 202
            assert service.result(payload["ticket"], timeout=TIMEOUT).done
            _get(f"{server.url}/healthz")
            counter = registry.get("goggles_http_requests_total")
            # The status counter lands after the reply bytes go out, so a
            # fresh client read can race it by a hair — wait it out.
            deadline = time.monotonic() + 5.0
            while counter.value(route="/healthz", status="200", tenant="") < 1:
                assert time.monotonic() < deadline, "healthz request never counted"
                time.sleep(0.01)
            assert counter.value(route=SUBMIT_ROUTE, status="202", tenant="default") == 1
            assert counter.value(route="/healthz", status="200", tenant="") == 1
            histogram = registry.get("goggles_http_request_seconds")
            assert histogram.count(route=SUBMIT_ROUTE, tenant="default") == 1
        finally:
            server.shutdown()

    def test_healthz_http_section(self, http_setup):
        shared, *_ = http_setup
        server = LabelingHTTPServer(shared.tenants, registry=MetricsRegistry())
        server.serve_in_background()
        try:
            _, first = _get(f"{server.url}/healthz")
            # The healthz reply counts requests *completed before* it —
            # the very first scrape on a fresh registry sees 0.
            assert first["http"] == {"requests_total": 0, "shed_total": 0}
            deadline = time.monotonic() + 5.0
            while True:
                _, health = _get(f"{server.url}/healthz")
                if health["http"]["requests_total"] >= 1:
                    break
                assert time.monotonic() < deadline, "healthz never counted earlier requests"
                time.sleep(0.01)
        finally:
            server.shutdown()

    def test_shed_counter_tracks_429s(self, http_setup):
        shared, _, images, n0 = http_setup
        registry = MetricsRegistry()
        server = LabelingHTTPServer(shared.tenants, registry=registry)
        server.serve_in_background()
        try:
            for _ in range(3):
                code, *_ = _post(
                    f"{server.url}{BOUNDED_SUBMIT}",
                    _npy_bytes(images[n0 : n0 + 1]),
                    "application/octet-stream",
                )
                assert code == 429
            assert registry.get("goggles_http_shed_total").total() == 3
            counter = registry.get("goggles_http_requests_total")
            deadline = time.monotonic() + 5.0
            while counter.value(route=SUBMIT_ROUTE, status="429", tenant="bounded") < 3:
                assert time.monotonic() < deadline, "429s never counted"
                time.sleep(0.01)
            _, health = _get(f"{server.url}/healthz")
            assert health["http"]["shed_total"] == 3
        finally:
            server.shutdown()

    def test_trace_id_round_trip(self, http_setup):
        from repro.obs import clear_spans, recent_spans

        server, service, images, n0 = http_setup
        clear_spans()
        # Client-supplied trace id is honoured and echoed.
        request = urllib.request.Request(
            f"{server.url}{SUBMIT}",
            data=_npy_bytes(images[n0 : n0 + 1]),
            headers={"Content-Type": "application/octet-stream", "X-Trace-Id": "trace-abc-123"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30.0) as response:
            payload = json.loads(response.read())
            assert response.headers["X-Trace-Id"] == "trace-abc-123"
        assert payload["trace_id"] == "trace-abc-123"
        assert service.result(payload["ticket"], timeout=TIMEOUT).done
        # The service worker ran the batch under that trace id: the
        # spans recorded on the worker thread carry it.
        names = {record.name for record in recent_spans(trace_id="trace-abc-123")}
        assert "service.batch" in names
        assert "label_incremental" in names

    def test_traces_route_renders_one_timeline(self, http_setup):
        from repro.obs import clear_spans, new_trace_id, record_span
        from repro.obs.trace import SpanRecord

        server, *_ = http_setup
        clear_spans()
        trace_id = new_trace_id()
        record_span(SpanRecord("http.submit", trace_id, 0.01, "ok", started_at=100.0))
        record_span(
            SpanRecord("shard.base-fit", trace_id, 0.5, "ok", started_at=101.5, worker="w0")
        )
        record_span(SpanRecord("other", new_trace_id(), 0.1, "ok", started_at=100.5))
        code, payload = _get(f"{server.url}/v1/traces/{trace_id}")
        assert code == 200
        assert payload["trace_id"] == trace_id
        assert [entry["name"] for entry in payload["spans"]] == ["http.submit", "shard.base-fit"]
        assert payload["spans"][0]["worker"] is None
        assert payload["spans"][1]["worker"] == "w0"
        assert payload["spans"][1]["offset_seconds"] == pytest.approx(1.5)

    def test_traces_route_unknown_trace_404s(self, http_setup):
        server, *_ = http_setup
        try:
            urllib.request.urlopen(f"{server.url}/v1/traces/nope", timeout=30.0)
            raise AssertionError("expected a 404")
        except urllib.error.HTTPError as error:
            assert error.code == 404
            assert json.loads(error.read())["error"]["code"] == "unknown_trace"

    def test_healthz_distributed_section(self, http_setup):
        shared, *_ = http_setup
        registry = MetricsRegistry()
        server = LabelingHTTPServer(shared.tenants, registry=registry)
        server.serve_in_background()
        try:
            # No distributed series: the section stays out entirely.
            _, health = _get(f"{server.url}/healthz")
            assert "distributed" not in health
            # Simulate merged worker telemetry + coordinator bookkeeping.
            registry.counter(
                "goggles_worker_shards_completed_total", labelnames=("worker",)
            ).inc(7, worker="w0")
            registry.counter(
                "goggles_worker_shards_completed_total", labelnames=("worker",)
            ).inc(5, worker="w1")
            registry.counter(
                "goggles_coordinator_shards_completed_total", labelnames=("kind",)
            ).inc(12, kind="base-fit")
            registry.counter("goggles_stragglers_total", labelnames=("kind",)).inc(kind="base-fit")
            registry.counter("goggles_telemetry_frames_merged_total").inc(3)
            _, health = _get(f"{server.url}/healthz")
            section = health["distributed"]
            assert section["workers"] == {"w0": 7, "w1": 5}
            assert section["worker_shards_completed_total"] == 12
            assert section["coordinator_shards_completed_total"] == 12
            assert section["stragglers_total"] == 1
            assert section["telemetry_frames_merged_total"] == 3
        finally:
            server.shutdown()

    def test_trace_id_minted_when_absent(self, http_setup):
        server, service, images, n0 = http_setup
        code, payload, headers = _post(
            f"{server.url}{SUBMIT}", _npy_bytes(images[n0 : n0 + 1]), "application/octet-stream"
        )
        assert code == 202
        assert payload["trace_id"]
        assert headers["X-Trace-Id"] == payload["trace_id"]
        assert service.result(payload["ticket"], timeout=TIMEOUT).done

