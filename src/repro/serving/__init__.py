"""Streaming labeling service (see ENGINE.md, "The serving loop").

Wraps :class:`~repro.core.goggles.Goggles` behind a long-lived
``submit(images) -> ticket`` / ``poll(ticket)`` interface whose
background worker batches arrivals through warm-started incremental
inference.  The :class:`TenantRegistry` hosts many such services —
one fitted hierarchy per tenant, each entered through
:meth:`TenantRegistry.register` — behind the versioned ``/v1``
tenant-scoped HTTP API (see ENGINE.md, "Multi-tenant serving").
"""

from repro.serving.http import ROUTES, LabelingHTTPServer, Route, serve_http
from repro.serving.registry import (
    TenantConfig,
    TenantExistsError,
    TenantHandle,
    TenantRegistry,
    UnknownTenantError,
)
from repro.serving.service import SERVICE_MODES, BackPressureError, LabelingService, TicketStatus

__all__ = [
    "BackPressureError",
    "LabelingHTTPServer",
    "LabelingService",
    "ROUTES",
    "Route",
    "SERVICE_MODES",
    "TenantConfig",
    "TenantExistsError",
    "TenantHandle",
    "TenantRegistry",
    "TicketStatus",
    "UnknownTenantError",
    "serve_http",
]
