"""Tests for multi-tenant serving: TenantRegistry + the /v1 HTTP API.

The isolation contract under test: every tenant owns its service (queue,
worker, ticket table, back-pressure bound), so two tenants with
different label spaces serve concurrently with bit-identical posteriors
to their single-tenant runs, one tenant saturating its bound sheds only
its own traffic, and an evicted tenant reloads transparently — and
bit-identically — on its next request.
"""

from __future__ import annotations

import io
import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import Goggles, GogglesConfig
from repro.datasets.base import DevSet
from repro.obs import MetricsRegistry, default_registry
from repro.serving import registry as registry_module
from repro.serving import (
    BackPressureError,
    LabelingHTTPServer,
    LabelingService,
    TenantConfig,
    TenantExistsError,
    TenantRegistry,
    UnknownTenantError,
    serve_http,
)
from repro.utils.threads import blas_threads

TIMEOUT = 120.0

CONFIG = GogglesConfig(n_classes=2, seed=0, top_z=3, layers=(1, 2), n_jobs=2)


def _get(url: str, headers: dict | None = None) -> tuple[int, dict, dict]:
    request = urllib.request.Request(url, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _request(method: str, url: str, body: bytes | None = None,
             headers: dict | None = None) -> tuple[int, dict, dict]:
    request = urllib.request.Request(url, data=body, headers=headers or {}, method=method)
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def _npy_bytes(images: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, images)
    return buffer.getvalue()


def _split(dataset) -> tuple[np.ndarray, np.ndarray, DevSet]:
    """(seed corpus, query batch, dev set) from one small dataset; the
    dev set is drawn from within the seed corpus."""
    images = dataset.images
    n0 = images.shape[0] - 6
    labels = dataset.labels[:n0]
    indices = np.concatenate([np.flatnonzero(labels == k)[:3] for k in range(2)])
    return images[:n0], images[n0:], DevSet(indices=indices, labels=labels[indices])


def _reference_labels(vgg, seed_images, queries, dev) -> np.ndarray:
    """What a dedicated single-tenant service answers for ``queries``."""
    service = LabelingService(Goggles(CONFIG, model=vgg), dev, registry=MetricsRegistry())
    service.start(seed_images)
    with service:
        status = service.result(service.submit(queries), timeout=TIMEOUT)
    assert status.done
    return status.probabilistic_labels


@pytest.fixture(scope="module")
def stack(vgg, small_surface, small_cub):
    """One registry hosting three tenants (+ its HTTP server).

    ``alpha`` (surface) and ``beta`` (cub) are unbounded; ``bounded``
    (surface) has a 1-pixel queue bound so every submission to it sheds
    deterministically.
    """
    metrics = MetricsRegistry()
    registry = TenantRegistry(base_config=CONFIG, model=vgg, metrics=metrics)
    surface_seed, surface_queries, surface_dev = _split(small_surface)
    cub_seed, cub_queries, cub_dev = _split(small_cub)
    registry.register("alpha", surface_seed, surface_dev)
    registry.register("beta", cub_seed, cub_dev)
    registry.register(
        "bounded", surface_seed, surface_dev,
        TenantConfig(max_queued_pixels=1, retry_after=7.0),
    )
    server = serve_http(registry)
    data = {
        "alpha": (surface_seed, surface_queries, surface_dev),
        "beta": (cub_seed, cub_queries, cub_dev),
    }
    yield registry, server, data
    server.shutdown()
    registry.close()


class TestRegistryLifecycle:
    def test_describe_and_lookup(self, stack):
        registry, _, _ = stack
        assert registry.tenant_ids() == ["alpha", "beta", "bounded"]
        assert "alpha" in registry and "nope" not in registry
        rows = {row["id"]: row for row in registry.describe()}
        assert rows["alpha"]["state"] == "active"
        assert rows["alpha"]["mode"] == "batch"
        assert rows["alpha"]["resident_bytes"] > 0
        assert rows["bounded"]["max_queued_pixels"] == 1
        assert registry.resident_bytes() >= rows["alpha"]["resident_bytes"]

    def test_duplicate_and_invalid_ids(self, stack):
        registry, _, data = stack
        seed, _, dev = data["alpha"]
        with pytest.raises(TenantExistsError):
            registry.register("alpha", seed, dev)
        with pytest.raises(ValueError, match="invalid tenant id"):
            registry.register("bad/slash", seed, dev)
        with pytest.raises(UnknownTenantError):
            registry.get("nope")
        with pytest.raises(UnknownTenantError):
            registry.submit("nope", seed[:1])

    def test_config_validation(self):
        with pytest.raises(ValueError, match="mode"):
            TenantConfig(mode="nope")
        with pytest.raises(ValueError, match="n_classes"):
            TenantConfig(n_classes=1)
        with pytest.raises(ValueError, match="max_queued_pixels"):
            TenantConfig(max_queued_pixels=0)
        with pytest.raises(ValueError, match="retry_after"):
            TenantConfig(retry_after=0.0)
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            TenantRegistry(memory_budget_bytes=0)

    def test_ticket_namespace(self, stack):
        registry, _, data = stack
        _, queries, _ = data["alpha"]
        ticket = registry.submit("alpha", queries[:1])
        assert ticket.startswith("alpha-t")
        assert registry.result("alpha", ticket, timeout=TIMEOUT).done
        # The same ticket can never resolve under another tenant.
        with pytest.raises(KeyError):
            registry.poll("beta", ticket)


class TestIsolation:
    def test_concurrent_tenants_bit_identical(self, stack, vgg):
        """Two tenants with different label spaces, submitted to
        concurrently, answer exactly what their single-tenant runs do."""
        registry, _, data = stack
        # Fresh tenants: incremental serving absorbs submitted batches
        # into the corpus, so the reference must see the same history.
        pairs = {"iso-surface": data["alpha"], "iso-cub": data["beta"]}
        for tenant, (seed, _, dev) in pairs.items():
            registry.register(tenant, seed, dev)
        results: dict[str, np.ndarray] = {}
        errors: list[BaseException] = []

        def run(tenant: str) -> None:
            try:
                _, queries, _ = pairs[tenant]
                status = registry.result(
                    tenant, registry.submit(tenant, queries), timeout=TIMEOUT
                )
                assert status.done
                results[tenant] = status.probabilistic_labels
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=run, args=(tenant,)) for tenant in pairs]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=TIMEOUT)
            assert not errors
            for tenant, (seed, queries, dev) in pairs.items():
                expected = _reference_labels(vgg, seed, queries, dev)
                np.testing.assert_array_equal(results[tenant], expected)
        finally:
            for tenant in pairs:
                registry.remove(tenant)

    def test_backpressure_shed_is_per_tenant(self, stack):
        """The bounded tenant sheds its own traffic; alpha's proceeds."""
        registry, _, data = stack
        _, queries, _ = data["alpha"]
        with pytest.raises(BackPressureError) as excinfo:
            registry.submit("bounded", queries[:1])
        assert excinfo.value.bound == 1
        ticket = registry.submit("alpha", queries[:1])
        assert registry.result("alpha", ticket, timeout=TIMEOUT).done


class TestEvictReload:
    def test_evict_then_submit_reloads_bit_identical(self, stack):
        registry, _, data = stack
        seed, queries, dev = data["alpha"]
        # A fresh tenant so the pre-eviction answer is the first batch
        # labeled against the seed fit — exactly what a reload replays.
        handle = registry.register("cycle", seed, dev)
        try:
            before = registry.result("cycle", registry.submit("cycle", queries), timeout=TIMEOUT)
            assert registry.evict("cycle") is True
            assert not handle.active
            assert handle.resident_bytes() == 0
            assert registry.evict("cycle") is False  # idempotent
            # The next submit transparently reloads; the replayed seed
            # fit is fully seeded (and cache-hit when a cache_dir is
            # set), so the reloaded posteriors are bit-identical.
            after = registry.result("cycle", registry.submit("cycle", queries), timeout=TIMEOUT)
            np.testing.assert_array_equal(
                after.probabilistic_labels, before.probabilistic_labels
            )
            assert after.predictions.tolist() == before.predictions.tolist()
            # The row reads both counts from the metrics registry.
            (row,) = [row for row in registry.describe() if row["id"] == "cycle"]
            assert (row["reloads"], row["evictions"]) == (1, 1)
            metrics = registry.metrics
            assert metrics.get("goggles_tenant_evictions_total").value(tenant="cycle") == 1
            assert metrics.get("goggles_tenant_reloads_total").value(tenant="cycle") == 1
        finally:
            registry.remove("cycle")

    def test_tickets_die_with_eviction(self, stack):
        registry, _, data = stack
        _, queries, _ = data["alpha"]
        ticket = registry.submit("alpha", queries[:1])
        assert registry.result("alpha", ticket, timeout=TIMEOUT).done
        registry.evict("alpha")
        with pytest.raises(KeyError, match="evicted"):
            registry.poll("alpha", ticket)
        registry.activate("alpha")  # leave the shared tenant live again

    def test_reload_with_cache_dir_bit_identical(self, vgg, small_surface, tmp_path):
        """With a shared artifact cache the reload is disk-hits all the
        way down and still answers bit-identically."""
        seed, queries, dev = _split(small_surface)
        config = GogglesConfig(
            n_classes=2, seed=0, top_z=3, layers=(1, 2), n_jobs=2, cache_dir=str(tmp_path)
        )
        with TenantRegistry(base_config=config, model=vgg, metrics=MetricsRegistry()) as registry:
            registry.register("cached", seed, dev)
            before = registry.result("cached", registry.submit("cached", queries), timeout=TIMEOUT)
            # Cache instruments live in the process-wide default registry.
            hits = default_registry().get("goggles_cache_hits_total")
            baseline = hits.total()
            registry.reload("cached")
            after = registry.result("cached", registry.submit("cached", queries), timeout=TIMEOUT)
            np.testing.assert_array_equal(
                after.probabilistic_labels, before.probabilistic_labels
            )
            assert hits.total() > baseline  # the reload actually hit the cache

    def test_memory_budget_evicts_lru_idle(self, vgg, small_surface, small_cub):
        """Past the budget the least-recently-requested tenant is
        evicted; the requesting tenant itself is exempt."""
        surface_seed, surface_queries, surface_dev = _split(small_surface)
        cub_seed, _, cub_dev = _split(small_cub)
        with TenantRegistry(
            base_config=CONFIG, model=vgg, memory_budget_bytes=1, metrics=MetricsRegistry()
        ) as registry:
            first = registry.register("first", surface_seed, surface_dev)
            assert first.active  # the registering tenant is never self-evicted
            second = registry.register("second", cub_seed, cub_dev)
            assert second.active
            assert not first.active  # LRU-idle tenant made room
            # Traffic to the evicted tenant transparently reloads it and
            # pushes the now-idle other tenant out instead.
            ticket = registry.submit("first", surface_queries[:1])
            assert registry.result("first", ticket, timeout=TIMEOUT).done
            assert first.active
            assert not second.active


class TestHTTPTenantAPI:
    def test_submit_poll_v1_roundtrip(self, stack):
        _, server, data = stack
        _, queries, _ = data["alpha"]
        code, payload, headers = _request(
            "POST", f"{server.url}/v1/tenants/alpha/submit",
            _npy_bytes(queries[:2]), {"Content-Type": "application/octet-stream"},
        )
        assert code == 202
        assert payload["tenant"] == "alpha"
        assert payload["ticket"].startswith("alpha-t")
        assert "Deprecation" not in headers  # /v1 is the supported surface
        deadline = time.monotonic() + TIMEOUT
        while True:
            code, status, _ = _get(f"{server.url}/v1/tenants/alpha/poll/{payload['ticket']}")
            assert code == 200
            if status["state"] != "pending":
                break
            assert time.monotonic() < deadline, "ticket never resolved"
            time.sleep(0.1)
        assert status["state"] == "done"
        assert status["tenant"] == "alpha"
        assert np.asarray(status["probabilistic_labels"]).shape == (2, 2)

    def test_cross_tenant_poll_is_404(self, stack):
        _, server, data = stack
        _, queries, _ = data["alpha"]
        code, payload, _ = _request(
            "POST", f"{server.url}/v1/tenants/alpha/submit",
            _npy_bytes(queries[:1]), {"Content-Type": "application/octet-stream"},
        )
        assert code == 202
        code, payload, _ = _get(f"{server.url}/v1/tenants/beta/poll/{payload['ticket']}")
        assert code == 404
        assert payload["error"]["code"] == "unknown_ticket"

    def test_429_sheds_one_tenant_only(self, stack):
        _, server, data = stack
        _, queries, _ = data["alpha"]
        body = _npy_bytes(queries[:1])
        code, payload, headers = _request(
            "POST", f"{server.url}/v1/tenants/bounded/submit",
            body, {"Content-Type": "application/octet-stream"},
        )
        assert code == 429
        assert headers["Retry-After"] == "7"
        assert payload["error"]["code"] == "backpressure"
        assert payload["error"]["max_queued_pixels"] == 1
        # The other tenant's traffic is untouched by the shed.
        code, accepted, _ = _request(
            "POST", f"{server.url}/v1/tenants/alpha/submit",
            body, {"Content-Type": "application/octet-stream"},
        )
        assert code == 202
        assert server.m_shed.value(tenant="bounded") >= 1
        assert server.m_shed.value(tenant="alpha") == 0

    def test_register_list_evict_forget_over_http(self, stack):
        _, server, data = stack
        seed, queries, dev = data["alpha"]
        body = json.dumps(
            {
                "tenant_id": "gamma",
                "images": seed.tolist(),
                "dev_indices": dev.indices.tolist(),
                "dev_labels": dev.labels.tolist(),
                "max_queued_pixels": 50_000_000,
            }
        ).encode()
        code, payload, _ = _request(
            "POST", f"{server.url}/v1/tenants", body, {"Content-Type": "application/json"}
        )
        assert code == 201
        assert payload["tenant"]["id"] == "gamma"
        assert payload["tenant"]["state"] == "active"
        assert payload["tenant"]["max_queued_pixels"] == 50_000_000
        # Duplicate registration answers 409 with the envelope.
        code, dup, _ = _request(
            "POST", f"{server.url}/v1/tenants", body, {"Content-Type": "application/json"}
        )
        assert code == 409
        assert dup["error"]["code"] == "tenant_exists"
        code, listing, _ = _get(f"{server.url}/v1/tenants")
        assert code == 200
        assert {row["id"] for row in listing["tenants"]} >= {"alpha", "beta", "gamma"}
        # Evict (keep the registration): the next submit reloads.
        code, evicted, _ = _request("DELETE", f"{server.url}/v1/tenants/gamma")
        assert code == 200 and evicted["state"] == "evicted"
        code, resubmit, _ = _request(
            "POST", f"{server.url}/v1/tenants/gamma/submit",
            _npy_bytes(queries[:1]), {"Content-Type": "application/octet-stream"},
        )
        assert code == 202, resubmit
        # Forget: the registration itself goes away.
        code, removed, _ = _request("DELETE", f"{server.url}/v1/tenants/gamma?forget=true")
        assert code == 200 and removed["state"] == "removed"
        code, gone, _ = _request(
            "POST", f"{server.url}/v1/tenants/gamma/submit",
            _npy_bytes(queries[:1]), {"Content-Type": "application/octet-stream"},
        )
        assert code == 404
        assert gone["error"]["code"] == "unknown_tenant"

    @pytest.mark.parametrize(
        "field", ["n_classes", "max_queued_pixels", "ticket_retention", "max_batch"]
    )
    def test_register_rejects_non_integer_counts(self, stack, field):
        """A count that is not an integer answers 400 and registers nothing.

        JSON decodes 2.5 and 2.0 as floats and ``true`` as a bool; a
        float ``max_batch`` used to kill the tenant's worker on its first
        batch, and a float ``n_classes`` dropped the connection mid-fit.
        """
        registry, server, data = stack
        seed, _, dev = data["alpha"]
        for bad in (2.5, 2.0, True):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                TenantConfig(**{field: bad})
        assert getattr(TenantConfig(**{field: np.int64(4)}), field) == 4
        tenant_id = "bad-" + field.replace("_", "-")
        body = json.dumps(
            {
                "tenant_id": tenant_id,
                "images": seed.tolist(),
                "dev_indices": dev.indices.tolist(),
                "dev_labels": dev.labels.tolist(),
                field: 2.5,
            }
        ).encode()
        code, payload, _ = _request(
            "POST", f"{server.url}/v1/tenants", body, {"Content-Type": "application/json"}
        )
        assert code == 400
        assert payload["error"]["code"] == "bad_request"
        assert field in payload["error"]["message"]
        assert tenant_id not in registry

    def test_unmapped_exception_answers_500(self, stack, monkeypatch):
        """An exception no handler maps still gets the error envelope,
        and the request counter counts the 500 that was sent."""
        registry, server, data = stack
        seed, _, dev = data["alpha"]

        def boom(*args: object, **kwargs: object) -> None:
            raise RuntimeError("simulated registry failure")

        monkeypatch.setattr(registry, "register", boom)
        body = json.dumps(
            {
                "tenant_id": "boom",
                "images": seed[:2].tolist(),
                "dev_indices": dev.indices[:1].tolist(),
                "dev_labels": dev.labels[:1].tolist(),
            }
        ).encode()
        code, payload, headers = _request(
            "POST", f"{server.url}/v1/tenants", body,
            {"Content-Type": "application/json", "X-Trace-Id": "trace-boom-500"},
        )
        assert code == 500
        assert payload["error"]["code"] == "internal_error"
        assert payload["error"]["trace_id"] == "trace-boom-500"
        assert headers["X-Trace-Id"] == "trace-boom-500"
        # Request counters land after the reply bytes; wait for it.
        counter = registry.metrics.get("goggles_http_requests_total")
        deadline = time.monotonic() + 5.0
        while counter.value(route="/v1/tenants", status="500", tenant="boom") < 1:
            assert time.monotonic() < deadline, "the 500 was never counted"
            time.sleep(0.01)
        assert counter.value(route="/v1/tenants", status="500", tenant="boom") == 1

    def test_register_missing_field_400(self, stack):
        _, server, _ = stack
        body = json.dumps({"tenant_id": "nope"}).encode()
        code, payload, _ = _request(
            "POST", f"{server.url}/v1/tenants", body, {"Content-Type": "application/json"}
        )
        assert code == 400
        assert payload["error"]["code"] == "bad_request"
        assert "images" in payload["error"]["message"]

    def test_error_envelope_carries_trace_id(self, stack):
        _, server, _ = stack
        code, payload, headers = _request(
            "POST", f"{server.url}/v1/tenants/nope/submit", b"{}",
            {"Content-Type": "application/json", "X-Trace-Id": "trace-tenant-404"},
        )
        assert code == 404
        assert payload["error"] == {
            "code": "unknown_tenant",
            "message": "unknown tenant 'nope'",
            "trace_id": "trace-tenant-404",
        }
        assert headers["X-Trace-Id"] == "trace-tenant-404"

    def test_413_envelope(self, stack):
        registry, _, _ = stack
        server = LabelingHTTPServer(registry, max_body_bytes=64)
        server.serve_in_background()
        try:
            code, payload, _ = _request(
                "POST", f"{server.url}/v1/tenants/alpha/submit",
                b"x" * 65, {"Content-Type": "application/octet-stream"},
            )
            assert code == 413
            assert payload["error"]["code"] == "payload_too_large"
            assert payload["error"]["max_body_bytes"] == 64
        finally:
            server.shutdown()

    def test_unversioned_routes_are_unknown(self, stack):
        """The unversioned ``/submit`` and ``/poll`` aliases are gone:
        they fall through the route table like any other path."""
        _, server, _ = stack
        code, payload, headers = _request(
            "POST", f"{server.url}/submit", b"{}", {"Content-Type": "application/json"}
        )
        assert code == 404
        assert payload["error"]["code"] == "unknown_route"
        assert "Deprecation" not in headers
        code, payload, _ = _request("GET", f"{server.url}/poll/default-t000001")
        assert code == 404
        assert payload["error"]["code"] == "unknown_route"

    def test_healthz_tenant_sections_and_filter(self, stack):
        _, server, _ = stack
        code, health, _ = _get(f"{server.url}/healthz")
        assert code == 200
        assert health["status"] == "ok"
        assert {"alpha", "beta", "bounded"} <= set(health["tenants"])
        assert health["tenants"]["bounded"]["max_queued_pixels"] == 1
        assert health["registry"]["registered"] >= 3
        assert health["registry"]["resident_bytes"] > 0
        code, one, _ = _get(f"{server.url}/healthz?tenant=alpha")
        assert code == 200
        assert one["tenant"] == "alpha" and one["state"] == "active"
        code, missing, _ = _get(f"{server.url}/healthz?tenant=nope")
        assert code == 404
        assert missing["error"]["code"] == "unknown_tenant"

    def test_metrics_tenant_filter(self, stack):
        _, server, data = stack
        _, queries, _ = data["alpha"]
        code, _, _ = _request(
            "POST", f"{server.url}/v1/tenants/alpha/submit",
            _npy_bytes(queries[:1]), {"Content-Type": "application/octet-stream"},
        )
        assert code == 202
        with urllib.request.urlopen(f"{server.url}/metrics?tenant=alpha", timeout=30.0) as response:
            text = response.read().decode("utf-8")
        samples = [line for line in text.splitlines() if not line.startswith("#")]
        assert samples, "filtered exposition kept no alpha series"
        assert all('tenant="alpha"' in line for line in samples)
        assert 'tenant="beta"' not in text

    def test_metrics_exports_blas_threads(self, stack, monkeypatch):
        _, server, _ = stack

        def scrape() -> str:
            with urllib.request.urlopen(f"{server.url}/metrics", timeout=30.0) as response:
                text = response.read().decode("utf-8")
            (line,) = [line for line in text.splitlines() if line.startswith("goggles_blas_threads ")]
            return line.split()[1]

        threads = blas_threads()
        assert scrape() == ("NaN" if threads is None else f"{threads:g}")
        monkeypatch.setattr(registry_module, "blas_threads", lambda: None)  # getter unreadable
        assert scrape() == "NaN"
