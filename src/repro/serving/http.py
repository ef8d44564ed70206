"""Versioned, tenant-scoped HTTP front-end for the labeling service.

Stdlib-only (``http.server``): a :class:`LabelingHTTPServer` exposes the
tenants of a :class:`~repro.serving.registry.TenantRegistry` (each one
entered through :meth:`~repro.serving.registry.TenantRegistry.register`)
through one declarative **route table** (method, pattern, handler).
Dispatch, the bounded Prometheus ``route`` label, and the 404
fall-through all derive from the same table, so there is exactly one
place a route exists.

The ``/v1`` API:

* ``POST /v1/tenants`` — register a tenant: JSON body with
  ``tenant_id``, ``images`` (the seed corpus), ``dev_indices`` +
  ``dev_labels`` (the cluster→class dev set), and optional config
  fields (``mode``, ``n_classes``, ``max_queued_pixels``,
  ``retry_after``).  Fits synchronously; replies ``201`` with the
  tenant row, ``409 tenant_exists`` on a duplicate id.
* ``GET /v1/tenants`` — list every tenant's state row.
* ``POST /v1/tenants/<id>/submit`` — submit an ``(M, C, H, W)`` batch
  (JSON ``{"images": ...}`` or raw ``.npy``/``.npz`` bytes) to one
  tenant; ``202 {"ticket": ...}``, or ``429 backpressure`` with a
  ``Retry-After`` header when *that tenant's* queue bound is hit —
  other tenants' traffic is never shed by it.
* ``GET /v1/tenants/<id>/poll/<ticket>`` — non-blocking ticket status.
* ``DELETE /v1/tenants/<id>`` — evict (drain + drop the fitted state,
  keep the registration; the next submit transparently reloads it
  bit-identically).  ``?forget=true`` removes the registration too.
* ``GET /healthz`` — liveness plus one queue/drift section per tenant
  under ``"tenants"``; ``?tenant=<id>`` narrows to one tenant's
  section.  When the registry carries distributed telemetry
  (merged worker counters, shard timelines) a ``distributed`` section
  summarises it.
* ``GET /metrics`` — Prometheus text exposition; ``?tenant=<id>``
  keeps only that tenant's series.
* ``GET /v1/traces/<trace-id>`` — the cross-process span timeline of
  one trace, assembled from the in-process span ring (worker-side
  spans land there through the telemetry merger); 404
  ``unknown_trace`` when no span carries the id.

**Error envelope**: every error path answers JSON
``{"error": {"code", "message", "trace_id", ...}}`` with the request's
trace id echoed in the ``X-Trace-Id`` header — codes are
``unknown_route``, ``unknown_tenant``, ``unknown_ticket``,
``bad_request``, ``payload_too_large`` (413, bodies above
``max_body_bytes``), ``backpressure`` (429), ``tenant_exists`` (409),
``service_unavailable`` (503), and ``internal_error`` (500, an
exception no handler maps, answered when no reply was sent yet).

Each request is handled on its own thread (``ThreadingHTTPServer``);
all actual labeling still funnels through each tenant service's single
background worker, so the HTTP layer adds concurrency only where it is
safe — parsing, queueing, and polling.
"""

from __future__ import annotations

import io
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.datasets.base import DevSet
from repro.obs import MetricsRegistry, filter_exposition, new_trace_id, recent_spans
from repro.serving.registry import (
    TenantConfig,
    TenantExistsError,
    TenantRegistry,
    UnknownTenantError,
)
from repro.serving.service import BackPressureError, TicketStatus

__all__ = ["LabelingHTTPServer", "ROUTES", "Route", "serve_http"]

#: Bodies above this many bytes answer 413 without being read.
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024


class Route(NamedTuple):
    """One row of the route table: dispatch + metrics label, together."""

    method: str
    pattern: re.Pattern
    label: str  # bounded-cardinality Prometheus route label
    handler: str  # _Handler method name


#: The single source of routing truth: dispatch, the ``route`` metric
#: label, and 404 fall-through all read this table.
ROUTES: tuple[Route, ...] = (
    Route("GET", re.compile(r"^/healthz$"), "/healthz", "_handle_healthz"),
    Route("GET", re.compile(r"^/metrics$"), "/metrics", "_handle_metrics"),
    Route(
        "GET",
        re.compile(r"^/v1/traces/(?P<trace>[^/]+)$"),
        "/v1/traces/{id}",
        "_handle_trace",
    ),
    Route("GET", re.compile(r"^/v1/tenants$"), "/v1/tenants", "_handle_tenants_list"),
    Route("POST", re.compile(r"^/v1/tenants$"), "/v1/tenants", "_handle_tenants_register"),
    Route(
        "POST",
        re.compile(r"^/v1/tenants/(?P<tenant>[^/]+)/submit$"),
        "/v1/tenants/{id}/submit",
        "_handle_submit",
    ),
    Route(
        "GET",
        re.compile(r"^/v1/tenants/(?P<tenant>[^/]+)/poll/(?P<ticket>[^/]+)$"),
        "/v1/tenants/{id}/poll/{ticket}",
        "_handle_poll",
    ),
    Route(
        "DELETE",
        re.compile(r"^/v1/tenants/(?P<tenant>[^/]+)$"),
        "/v1/tenants/{id}",
        "_handle_tenants_evict",
    ),
)


def match_route(method: str, path: str) -> tuple[Route | None, re.Match | None]:
    """The first table row whose method and pattern match, or ``(None, None)``."""
    for route in ROUTES:
        if route.method != method:
            continue
        match = route.pattern.match(path)
        if match is not None:
            return route, match
    return None, None


class LabelingHTTPServer(ThreadingHTTPServer):
    """HTTP front-end over a tenant registry.

    Parameters:
        tenants: the :class:`TenantRegistry` whose tenants the ``/v1``
            routes serve; each tenant's queue bound and 429
            ``Retry-After`` live in its :class:`TenantConfig`.
        address: ``(host, port)`` to bind; port 0 picks an ephemeral
            port (read it back from :attr:`port` / :attr:`url`).
        registry: metrics registry backing ``/metrics`` and the HTTP
            request counters; defaults to ``tenants.metrics``.
        max_body_bytes: request bodies above this answer ``413
            payload_too_large`` without being read.
    """

    daemon_threads = True

    def __init__(
        self,
        tenants: TenantRegistry,
        address: tuple[str, int] = ("127.0.0.1", 0),
        *,
        registry: MetricsRegistry | None = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ):
        if max_body_bytes < 1:
            raise ValueError(f"max_body_bytes must be >= 1, got {max_body_bytes}")
        self.tenants = tenants
        self.registry = registry or tenants.metrics
        self.max_body_bytes = max_body_bytes
        self.m_requests = self.registry.counter(
            "goggles_http_requests_total",
            "HTTP requests handled, by normalised route, status code, and tenant.",
            labelnames=("route", "status", "tenant"),
        )
        self.m_request_seconds = self.registry.histogram(
            "goggles_http_request_seconds",
            "HTTP request handling wall time, by normalised route and tenant.",
            labelnames=("route", "tenant"),
        )
        self.m_shed = self.registry.counter(
            "goggles_http_shed_total",
            "Submissions shed with 429 by the HTTP back-pressure bound, by tenant.",
            labelnames=("tenant",),
        )
        super().__init__(tuple(address), _Handler)

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def serve_in_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread; returns the thread."""
        thread = threading.Thread(target=self.serve_forever, name="goggles-http", daemon=True)
        thread.start()
        return thread


def serve_http(
    tenants: TenantRegistry,
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs: object,
) -> LabelingHTTPServer:
    """Build a :class:`LabelingHTTPServer` and start it in the background."""
    server = LabelingHTTPServer(tenants, (host, port), **kwargs)
    server.serve_in_background()
    return server


def _status_payload(status: TicketStatus) -> dict:
    payload: dict = {"ticket": status.ticket, "state": status.state}
    if status.state == "done":
        assert status.probabilistic_labels is not None
        payload["probabilistic_labels"] = status.probabilistic_labels.tolist()
        payload["predictions"] = status.predictions.tolist()
    elif status.state == "failed":
        payload["error"] = status.error
    return payload


def _parse_images(body: bytes, content_type: str) -> np.ndarray:
    if "application/json" in content_type:
        document = json.loads(body.decode("utf-8"))
        if not isinstance(document, dict) or "images" not in document:
            raise ValueError('JSON body must be an object with an "images" key')
        return np.asarray(document["images"], dtype=np.float64)
    loaded = np.load(io.BytesIO(body), allow_pickle=False)
    if isinstance(loaded, np.lib.npyio.NpzFile):
        with loaded:
            if "images" not in loaded.files:
                raise ValueError('npz body must hold an "images" entry')
            return np.asarray(loaded["images"], dtype=np.float64)
    return np.asarray(loaded, dtype=np.float64)


def _check_batch(images: np.ndarray) -> np.ndarray:
    if images.ndim != 4 or images.shape[0] == 0:
        raise ValueError(f"expected a non-empty (M, C, H, W) batch, got shape {images.shape}")
    return images


def _distributed_summary(registry: MetricsRegistry) -> dict | None:
    """The ``/healthz`` section summarising merged distributed telemetry.

    Present only when the registry carries distributed series (a
    coordinator sharing the server's registry); ``None`` keeps the
    section out of single-process deployments' payloads.
    """
    workers = registry.get("goggles_worker_shards_completed_total")
    coordinator = registry.get("goggles_coordinator_shards_completed_total")
    if workers is None and coordinator is None:
        return None
    section: dict = {}
    if workers is not None:
        series = workers.series()
        section["workers"] = {key[0]: int(value) for key, value in sorted(series.items())}
        section["worker_shards_completed_total"] = int(sum(series.values()))
    if coordinator is not None:
        section["coordinator_shards_completed_total"] = int(coordinator.total())
    for field, name in (
        ("stragglers_total", "goggles_stragglers_total"),
        ("telemetry_frames_merged_total", "goggles_telemetry_frames_merged_total"),
        ("telemetry_frames_skipped_total", "goggles_telemetry_frames_skipped_total"),
        ("telemetry_merge_conflicts_total", "goggles_telemetry_merge_conflicts_total"),
    ):
        metric = registry.get(name)
        if metric is not None:
            section[field] = int(metric.total())
    return section


def _registration_config(document: dict) -> TenantConfig:
    """The TenantConfig encoded in a POST /v1/tenants body."""
    fields = {}
    for name in ("mode", "n_classes", "max_queued_pixels", "retry_after",
                 "warm_start", "ticket_retention", "max_batch"):
        if document.get(name) is not None:
            fields[name] = document[name]
    return TenantConfig(**fields)


class _Handler(BaseHTTPRequestHandler):
    server: LabelingHTTPServer

    # Quiet by default: a labeling benchmark should not spam stderr.
    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------
    # Dispatch: every verb funnels through the route table
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        route, match = match_route(method, split.path)
        self._route_label = route.label if route is not None else "other"
        self._tenant_label = ""  # set by tenant-scoped handlers
        self._trace_id = self.headers.get("X-Trace-Id") or new_trace_id()
        self._status_code = 0
        started = time.monotonic()
        try:
            if route is None:
                self._error(404, "unknown_route", f"no route {method} {split.path!r}")
            else:
                query = parse_qs(split.query)
                getattr(self, route.handler)(match, query)
        except Exception as error:  # noqa: BLE001 - an unmapped failure still gets a reply
            if self._status_code:  # a reply already went out; nothing left to tell
                raise
            self._error(500, "internal_error", f"{type(error).__name__}: {error}")
        finally:
            self.server.m_request_seconds.observe(
                time.monotonic() - started, route=self._route_label, tenant=self._tenant_label
            )
            self.server.m_requests.inc(
                route=self._route_label,
                status=str(self._status_code or 500),
                tenant=self._tenant_label,
            )

    def _match_tenant(self, match: re.Match | None) -> str:
        """The tenant a ``/v1/tenants/<id>/...`` route addresses."""
        assert match is not None
        tenant_id = match.group("tenant")
        self._tenant_label = tenant_id
        return tenant_id

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------
    def _reply(self, code: int, payload: dict, headers: dict[str, str] | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send(code, body, "application/json", headers)

    def _error(self, code: int, error_code: str, message: str,
               headers: dict[str, str] | None = None, **details: object) -> None:
        """The uniform error envelope every error path answers with."""
        envelope = {"code": error_code, "message": message, "trace_id": self._trace_id, **details}
        self._reply(code, {"error": envelope}, headers)

    def _send(
        self,
        code: int,
        body: bytes,
        content_type: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self._status_code = code
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Trace-Id", self._trace_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes | None:
        """The request body, or ``None`` after an already-sent 413."""
        length = int(self.headers.get("Content-Length", "0") or 0)
        if length > self.server.max_body_bytes:
            self._error(
                413, "payload_too_large",
                f"request body of {length} bytes exceeds the {self.server.max_body_bytes}-byte bound",
                max_body_bytes=self.server.max_body_bytes,
            )
            return None
        return self.rfile.read(length)

    # ------------------------------------------------------------------
    # Handlers (reached only through the route table)
    # ------------------------------------------------------------------
    def _handle_healthz(self, match: re.Match | None, query: dict[str, list[str]]) -> None:
        tenants = self.server.tenants
        rows = {row["id"]: row for row in tenants.describe()}
        wanted = query.get("tenant", [None])[0]
        if wanted is not None:
            row = rows.get(wanted)
            if row is None:
                self._error(404, "unknown_tenant", f"unknown tenant {wanted!r}")
                return
            self._tenant_label = wanted
            self._reply(200, {"status": "ok" if row.get("running", True) else "stopped",
                              "tenant": wanted, **row})
            return
        stopped = any(row["state"] == "active" and not row.get("running") for row in rows.values())
        payload: dict = {"status": "stopped" if stopped else "ok", "tenants": rows}
        payload["registry"] = {
            "registered": len(rows),
            "active": sum(1 for row in rows.values() if row["state"] == "active"),
            "resident_bytes": tenants.resident_bytes(),
            "memory_budget_bytes": tenants.memory_budget_bytes,
        }
        payload["http"] = {
            "requests_total": int(self.server.m_requests.total()),
            "shed_total": int(self.server.m_shed.total()),
        }
        distributed = _distributed_summary(self.server.registry)
        if distributed is not None:
            payload["distributed"] = distributed
        self._reply(200, payload)

    def _handle_metrics(self, match: re.Match | None, query: dict[str, list[str]]) -> None:
        text = self.server.registry.render()
        wanted = query.get("tenant", [None])[0]
        if wanted is not None:
            self._tenant_label = wanted
            text = filter_exposition(text, tenant=wanted)
        self._send(200, text.encode("utf-8"), "text/plain; version=0.0.4; charset=utf-8")

    def _handle_trace(self, match: re.Match | None, query: dict[str, list[str]]) -> None:
        assert match is not None
        trace_id = match.group("trace")
        records = sorted(recent_spans(trace_id=trace_id), key=lambda r: r.started_at)
        if not records:
            self._error(404, "unknown_trace", f"no spans recorded for trace {trace_id!r}")
            return
        base = records[0].started_at
        spans = [
            {
                "name": record.name,
                "worker": record.worker,
                "seconds": record.seconds,
                "outcome": record.outcome,
                "started_at": record.started_at,
                "offset_seconds": max(record.started_at - base, 0.0),
            }
            for record in records
        ]
        self._reply(200, {"trace_id": trace_id, "spans": spans})

    def _handle_tenants_list(self, match: re.Match | None, query: dict[str, list[str]]) -> None:
        self._reply(200, {"tenants": self.server.tenants.describe()})

    def _handle_tenants_register(self, match: re.Match | None, query: dict[str, list[str]]) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            document = json.loads(body.decode("utf-8"))
            if not isinstance(document, dict):
                raise ValueError("body must be a JSON object")
            tenant_id = document.get("tenant_id")
            if not isinstance(tenant_id, str) or not tenant_id:
                raise ValueError('body must carry a string "tenant_id"')
            images = _check_batch(np.asarray(document["images"], dtype=np.float64))
            dev = DevSet(
                indices=np.asarray(document["dev_indices"], dtype=np.int64),
                labels=np.asarray(document["dev_labels"], dtype=np.int64),
            )
            config = _registration_config(document)
        except KeyError as error:
            self._error(400, "bad_request", f"missing field {error.args[0]!r}")
            return
        except Exception as error:  # noqa: BLE001 - malformed input is the client's fault
            self._error(400, "bad_request", f"{type(error).__name__}: {error}")
            return
        self._tenant_label = tenant_id
        try:
            handle = self.server.tenants.register(tenant_id, images, dev, config)
        except TenantExistsError:
            self._error(409, "tenant_exists", f"tenant {tenant_id!r} is already registered")
            return
        except ValueError as error:
            self._error(400, "bad_request", str(error))
            return
        self._reply(201, {"tenant": self.server.tenants.row(handle), "trace_id": self._trace_id})

    def _handle_tenants_evict(self, match: re.Match | None, query: dict[str, list[str]]) -> None:
        tenant_id = self._match_tenant(match)
        forget = query.get("forget", ["false"])[0].lower() in ("1", "true", "yes")
        try:
            if forget:
                self.server.tenants.remove(tenant_id)
            else:
                self.server.tenants.evict(tenant_id)
        except UnknownTenantError:
            self._error(404, "unknown_tenant", f"unknown tenant {tenant_id!r}")
            return
        self._reply(200, {"tenant": tenant_id, "state": "removed" if forget else "evicted"})

    def _handle_submit(self, match: re.Match | None, query: dict[str, list[str]]) -> None:
        tenant_id = self._match_tenant(match)
        tenants = self.server.tenants
        try:
            handle = tenants.get(tenant_id)
        except UnknownTenantError:
            self._error(404, "unknown_tenant", f"unknown tenant {tenant_id!r}")
            return
        body = self._read_body()
        if body is None:
            return
        try:
            images = _check_batch(_parse_images(body, self.headers.get("Content-Type", "")))
        except Exception as error:  # noqa: BLE001 - malformed input is the client's fault
            self._error(400, "bad_request", f"{type(error).__name__}: {error}")
            return
        try:
            # The bound is enforced *inside* the tenant service's submit,
            # under its lock — concurrent handler threads cannot jointly
            # overshoot, and only this tenant's traffic is ever shed.
            ticket = tenants.submit(tenant_id, images, trace_id=self._trace_id)
        except BackPressureError as error:
            self.server.m_shed.inc(tenant=tenant_id)
            self._error(
                429, "backpressure", "labeling queue is full, retry later",
                headers={"Retry-After": f"{handle.config.retry_after:g}"},
                queued_pixels=error.queued_pixels,
                max_queued_pixels=error.bound,
            )
            return
        except UnknownTenantError:  # raced a concurrent remove
            self._error(404, "unknown_tenant", f"unknown tenant {tenant_id!r}")
            return
        except RuntimeError as error:  # not started / stopping
            self._error(503, "service_unavailable", str(error))
            return
        self._reply(202, {"ticket": ticket, "tenant": tenant_id, "trace_id": self._trace_id})

    def _handle_poll(self, match: re.Match | None, query: dict[str, list[str]]) -> None:
        tenant_id = self._match_tenant(match)
        ticket = match.group("ticket")
        try:
            status = self.server.tenants.poll(tenant_id, ticket)
        except UnknownTenantError:
            self._error(404, "unknown_tenant", f"unknown tenant {tenant_id!r}")
            return
        except KeyError:
            self._error(404, "unknown_ticket", f"unknown ticket {ticket!r}")
            return
        self._reply(200, {**_status_payload(status), "tenant": tenant_id})
