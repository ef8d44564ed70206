"""Multi-tenant model registry: one process, many labeling tasks.

GOGGLES' premise is that affinity coding generalises across domains,
so one ``serve`` process hosts many fitted hierarchies.  The
:class:`TenantRegistry` maps ``tenant_id -> TenantHandle``; each handle
holds its tenant's reload recipe (seed corpus, dev set, pipeline
config) and, while active, a running
:class:`~repro.serving.service.LabelingService` over the tenant's own
fitted :class:`~repro.core.goggles.Goggles` (and, in online mode, its
:class:`~repro.online.OnlineSession`).  A per-tenant
:class:`TenantConfig` holds the queue bound, 429 ``Retry-After`` and
serving mode.

Lifecycle verbs:

* :meth:`TenantRegistry.register` — the only way a tenant enters
  serving: fit it from its seed corpus + dev set and start serving it;
* :meth:`TenantRegistry.activate` — transparent reload of an evicted
  tenant.  The rebuild goes through ``goggles.label`` on the retained
  seed corpus: with a cache directory every stage is a content-addressed
  disk hit (affinity, corpus state, inference params, ``online-*.npz``
  state), and without one the pipeline is still fully seeded — either
  way the reloaded tenant's posteriors are **bit-identical** to the
  pre-eviction ones (tests prove this);
* :meth:`TenantRegistry.evict` — drain the service and drop its
  ``Goggles`` with the corpus state, keeping the registration (the
  reload recipe);
* :meth:`TenantRegistry.remove` — evict and forget.

Idle tenants are lazily evicted under a global ``memory_budget_bytes``:
whenever the resident corpus bytes of all active tenants exceed the
budget, the least-recently-requested tenants are evicted until it fits
(the tenant that triggered enforcement is exempt).  The next request to
an evicted tenant reloads it transparently.

Isolation contract: every tenant has its own ``LabelingService`` (own
queue, own worker thread, own ticket table) and its own queue-depth
bound, so one tenant saturating its bound sheds *its* traffic with 429
while every other tenant's submissions proceed.  Tickets are namespaced
``<tenant>-t<counter>`` by the service, so a ticket can never resolve
under the wrong tenant.  The shared :class:`~repro.engine.cache.
ArtifactCache` directory stays global — content addressing already
prevents cross-tenant collisions — but its metrics carry a ``tenant``
label (the registry stamps each tenant's cache instance).
"""

from __future__ import annotations

import math
import numbers
import re
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.goggles import Goggles, GogglesConfig
from repro.datasets.base import DevSet
from repro.obs import MetricsRegistry, default_registry
from repro.online import OnlineConfig
from repro.serving.service import SERVICE_MODES, LabelingService, TicketStatus
from repro.utils.threads import blas_threads

__all__ = [
    "TENANT_ID_RE",
    "TenantConfig",
    "TenantExistsError",
    "TenantHandle",
    "TenantRegistry",
    "UnknownTenantError",
]

#: URL-safe tenant ids: they appear verbatim in ``/v1/tenants/<id>/...``
#: paths and as Prometheus label values.
TENANT_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class UnknownTenantError(KeyError):
    """The tenant id is not registered."""

    def __init__(self, tenant_id: str):
        self.tenant_id = tenant_id
        super().__init__(f"unknown tenant {tenant_id!r}")


class TenantExistsError(ValueError):
    """The tenant id is already registered."""

    def __init__(self, tenant_id: str):
        self.tenant_id = tenant_id
        super().__init__(f"tenant {tenant_id!r} is already registered")


@dataclass(frozen=True)
class TenantConfig:
    """Per-tenant serving knobs.

    Attributes:
        mode: ``"batch"`` or ``"online"`` (see :class:`LabelingService`).
        n_classes: label-space size; ``None`` inherits the registry's
            base pipeline config.
        max_queued_pixels: this tenant's back-pressure bound — its
            submissions shed with 429 when *its own* queue would exceed
            the bound; other tenants are unaffected.  ``None`` disables
            shedding for this tenant.
        retry_after: the 429 ``Retry-After`` header value (seconds).
        warm_start: warm-start inference on each incremental batch.
        ticket_retention: resolved tickets kept before expiry.
        max_batch: cap on submissions coalesced per incremental run.
        online: online-loop knobs for ``mode="online"``.
    """

    mode: str = "batch"
    n_classes: int | None = None
    max_queued_pixels: int | None = None
    retry_after: float = 1.0
    warm_start: bool = True
    ticket_retention: int = 1024
    max_batch: int | None = None
    online: OnlineConfig | None = None

    def __post_init__(self) -> None:
        for name in ("n_classes", "max_queued_pixels", "ticket_retention", "max_batch"):
            value = getattr(self, name)
            # A JSON body decodes 2.5 and 2.0 as floats and true as a bool;
            # none of them may reach the service as a count.
            if value is not None and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.mode not in SERVICE_MODES:
            raise ValueError(f"mode must be one of {SERVICE_MODES}, got {self.mode!r}")
        if self.n_classes is not None and self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.max_queued_pixels is not None and self.max_queued_pixels < 1:
            raise ValueError(f"max_queued_pixels must be >= 1, got {self.max_queued_pixels}")
        if self.retry_after <= 0:
            raise ValueError(f"retry_after must be > 0, got {self.retry_after}")
        if self.ticket_retention < 1:
            raise ValueError(f"ticket_retention must be >= 1, got {self.ticket_retention}")
        if self.max_batch is not None and self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")


@dataclass
class TenantHandle:
    """One tenant's registration: the reload recipe plus live state.

    ``seed_images`` + ``dev_set`` + ``goggles_config`` are the recipe
    :meth:`TenantRegistry.activate` rebuilds from; ``service`` is the
    running :class:`LabelingService` over the tenant's own ``Goggles``
    (``service.goggles``), or ``None`` while evicted.
    """

    tenant_id: str
    config: TenantConfig
    goggles_config: GogglesConfig
    seed_images: np.ndarray
    dev_set: DevSet
    service: LabelingService | None = None
    last_request: float = field(default_factory=time.monotonic)
    lock: threading.RLock = field(default_factory=threading.RLock, repr=False)

    @property
    def active(self) -> bool:
        return self.service is not None

    def touch(self) -> None:
        self.last_request = time.monotonic()

    def resident_bytes(self) -> int:
        """Estimated bytes of this tenant's resident corpus state
        (affinity values + retained per-layer arrays); 0 while evicted."""
        service = self.service
        state = None if service is None else service.goggles.engine.state
        if state is None:
            return 0
        total = sum(int(array.nbytes) for array in state.arrays.values())
        values = getattr(state.affinity, "values", None)
        if isinstance(values, np.ndarray):
            total += int(values.nbytes)
        return total

    def describe(self) -> dict:
        """JSON-serialisable snapshot of the handle itself;
        :meth:`TenantRegistry.row` adds the counts the registry keeps."""
        service = self.service
        row: dict = {
            "id": self.tenant_id,
            "state": "active" if service is not None else "evicted",
            "mode": self.config.mode,
            "max_queued_pixels": self.config.max_queued_pixels,
            "retry_after": self.config.retry_after,
            "resident_bytes": self.resident_bytes(),
            "last_request_age_seconds": round(time.monotonic() - self.last_request, 3),
        }
        if service is not None:
            queued = service.queued_pixels
            bound = self.config.max_queued_pixels
            row.update(
                {
                    "running": service.running,
                    "corpus_size": service.corpus_size,
                    "queued_pixels": queued,
                    "queue_fill": None if bound is None else round(queued / bound, 4),
                    "tickets_outstanding": service.tickets_outstanding,
                    "n_batches": service.n_batches,
                    "n_labeled": service.n_labeled,
                    "online": service.online_stats,
                }
            )
        return row


def _blas_threads_or_nan() -> float:
    threads = blas_threads()
    return math.nan if threads is None else float(threads)


class TenantRegistry:
    """``tenant_id -> TenantHandle`` with lifecycle + budget enforcement.

    Parameters:
        base_config: pipeline config template for :meth:`register` (a
            tenant overrides ``n_classes``/``online`` via its
            :class:`TenantConfig`; ``keep_corpus_state`` is forced on).
            ``None`` falls back to ``GogglesConfig()`` defaults.
        model: shared backbone passed to every tenant's ``Goggles`` —
            the VGG surrogate is tenant-agnostic, so sharing it avoids
            one backbone per tenant.  ``None`` lets each tenant build
            its own from ``base_config.vgg``.
        memory_budget_bytes: global bound on the summed resident corpus
            bytes of *active* tenants; exceeded -> LRU-idle tenants are
            evicted (see :meth:`_enforce_budget`).
        metrics: registry for the ``goggles_tenant_*`` families and
            every tenant service's instruments; defaults process-wide.

    Locking: the registry dict is guarded by one lock; slow operations
    (fits, reloads, drains) run under the *handle's* lock only, so one
    tenant's reload never stalls another tenant's submits.
    """

    def __init__(
        self,
        base_config: GogglesConfig | None = None,
        model: object | None = None,
        *,
        memory_budget_bytes: int | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if memory_budget_bytes is not None and memory_budget_bytes < 1:
            raise ValueError(f"memory_budget_bytes must be >= 1, got {memory_budget_bytes}")
        self.base_config = base_config
        self.model = model
        self.memory_budget_bytes = memory_budget_bytes
        self.metrics = metrics or default_registry()
        self._handles: dict[str, TenantHandle] = {}
        self._registering: set[str] = set()
        self._lock = threading.RLock()
        self._m_evictions = self.metrics.counter(
            "goggles_tenant_evictions_total",
            "Tenant evictions (explicit or memory-budget LRU), by tenant.",
            labelnames=("tenant",),
        )
        self._m_reloads = self.metrics.counter(
            "goggles_tenant_reloads_total",
            "Transparent tenant reloads after eviction, by tenant.",
            labelnames=("tenant",),
        )
        self.metrics.gauge(
            "goggles_tenants_registered", "Tenants currently registered."
        ).set_function(lambda: len(self._handles))
        self.metrics.gauge(
            "goggles_tenants_active", "Registered tenants with a live service."
        ).set_function(lambda: sum(1 for h in list(self._handles.values()) if h.active))
        self.metrics.gauge(
            "goggles_tenants_resident_bytes",
            "Estimated resident corpus bytes across active tenants.",
        ).set_function(self.resident_bytes)
        self.metrics.gauge(
            "goggles_blas_threads",
            "Threads numpy's OpenBLAS runs each call on (NaN when unreadable).",
        ).set_function(_blas_threads_or_nan)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, tenant_id: str) -> TenantHandle:
        with self._lock:
            handle = self._handles.get(tenant_id)
        if handle is None:
            raise UnknownTenantError(tenant_id)
        return handle

    def __contains__(self, tenant_id: str) -> bool:
        with self._lock:
            return tenant_id in self._handles

    def tenant_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._handles)

    def describe(self) -> list[dict]:
        """One :meth:`row` per tenant, sorted by id."""
        with self._lock:
            handles = [self._handles[tid] for tid in sorted(self._handles)]
        return [self.row(handle) for handle in handles]

    def row(self, handle: TenantHandle) -> dict:
        """``handle.describe()`` plus the tenant's ``reloads`` and
        ``evictions``, read from the metrics registry that counts them
        (so two registries sharing one metrics registry and one tenant
        id read each other's events)."""
        tenant = handle.tenant_id
        return {
            **handle.describe(),
            "reloads": int(self._m_reloads.value(tenant=tenant)),
            "evictions": int(self._m_evictions.value(tenant=tenant)),
        }

    def resident_bytes(self) -> int:
        with self._lock:
            handles = list(self._handles.values())
        return sum(handle.resident_bytes() for handle in handles)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _tenant_goggles_config(self, config: TenantConfig) -> GogglesConfig:
        base = self.base_config or GogglesConfig()
        return replace(
            base,
            n_classes=config.n_classes if config.n_classes is not None else base.n_classes,
            online=config.online if config.online is not None else base.online,
            keep_corpus_state=True,  # incremental serving extends the retained state
        )

    def _start(self, handle: TenantHandle) -> LabelingService:
        """Fit the handle's recipe on a fresh ``Goggles`` and start serving it."""
        goggles = Goggles(handle.goggles_config, model=self.model)
        if goggles.engine.cache is not None:
            # The cache directory is shared (content addressing keeps
            # tenants from colliding); the metric label is per-tenant.
            goggles.engine.cache.tenant = handle.tenant_id
        config = handle.config
        service = LabelingService(
            goggles,
            handle.dev_set,
            tenant=handle.tenant_id,
            mode=config.mode,
            warm_start=config.warm_start,
            ticket_retention=config.ticket_retention,
            max_batch=config.max_batch,
            online=config.online,
            registry=self.metrics,
        )
        service.start(handle.seed_images)
        return service

    def register(
        self,
        tenant_id: str,
        images: np.ndarray,
        dev_set: DevSet,
        config: TenantConfig | None = None,
    ) -> TenantHandle:
        """Fit a new tenant on its seed corpus and start serving it.

        The only way a tenant enters serving: the seed corpus, dev set
        and pipeline config stay on the handle as its reload recipe.
        The fit runs outside the registry lock (only the id is reserved
        under it), so registering one tenant never blocks traffic to the
        others.  Raises :class:`TenantExistsError` on a duplicate id and
        ``ValueError`` on an invalid one.
        """
        config = config or TenantConfig()
        if not TENANT_ID_RE.match(tenant_id):
            raise ValueError(
                f"invalid tenant id {tenant_id!r}: must match {TENANT_ID_RE.pattern}"
            )
        with self._lock:
            if tenant_id in self._handles or tenant_id in self._registering:
                raise TenantExistsError(tenant_id)
            self._registering.add(tenant_id)
        try:
            handle = TenantHandle(
                tenant_id=tenant_id,
                config=config,
                goggles_config=self._tenant_goggles_config(config),
                seed_images=np.asarray(images),
                dev_set=dev_set,
            )
            handle.service = self._start(handle)
        except BaseException:
            with self._lock:
                self._registering.discard(tenant_id)
            raise
        with self._lock:
            self._registering.discard(tenant_id)
            self._handles[tenant_id] = handle
        self._enforce_budget(keep=tenant_id)
        return handle

    # ------------------------------------------------------------------
    # Eviction / reload
    # ------------------------------------------------------------------
    def activate(self, tenant_id: str) -> TenantHandle:
        """Ensure the tenant is live, transparently reloading if evicted.

        The reload replays the seed fit through the engines — with a
        cache directory every stage is a content-addressed disk hit, and
        the pipeline is fully seeded regardless, so the reloaded state
        is bit-identical to the pre-eviction one.  In online mode the
        session additionally resumes its persisted ``online-*.npz``
        accumulators.
        """
        handle = self.get(tenant_id)
        with handle.lock:
            if handle.service is not None:
                return handle
            handle.service = self._start(handle)
        self._m_reloads.inc(tenant=tenant_id)
        return handle

    def evict(self, tenant_id: str, *, wait: bool = True) -> bool:
        """Drain and drop the tenant's service and its ``Goggles``, while
        keeping the registration.  Returns whether anything was evicted.
        Outstanding tickets are dropped with the service — post-eviction
        polls answer 404, as after ticket expiry."""
        handle = self.get(tenant_id)
        with handle.lock:
            service, handle.service = handle.service, None
            if service is None:
                return False
            service.stop(wait=wait)
        self._m_evictions.inc(tenant=tenant_id)
        return True

    def reload(self, tenant_id: str) -> TenantHandle:
        """Force an evict + rebuild round trip (no-op eviction if already
        evicted)."""
        self.evict(tenant_id)
        return self.activate(tenant_id)

    def remove(self, tenant_id: str, *, wait: bool = True) -> None:
        """Evict and forget the tenant entirely."""
        self.evict(tenant_id, wait=wait)
        with self._lock:
            self._handles.pop(tenant_id, None)

    def _enforce_budget(self, keep: str | None = None) -> None:
        """Evict least-recently-requested tenants past the memory budget.

        ``keep`` — the tenant that triggered enforcement — is exempt so
        serving one request can never evict its own tenant.
        """
        budget = self.memory_budget_bytes
        if budget is None:
            return
        with self._lock:
            handles = list(self._handles.values())
        active = [h for h in handles if h.active]
        total = sum(h.resident_bytes() for h in active)
        for handle in sorted(active, key=lambda h: h.last_request):
            if total <= budget:
                break
            if handle.tenant_id == keep:
                continue
            size = handle.resident_bytes()
            if self.evict(handle.tenant_id):
                total -= size

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(self, tenant_id: str, images: np.ndarray, trace_id: str | None = None) -> str:
        """Submit to one tenant, transparently reloading it if evicted.

        The tenant's own ``max_queued_pixels`` bound applies — a full
        queue raises :class:`~repro.serving.service.BackPressureError`
        for *this* tenant only.
        """
        handle = self.activate(tenant_id)
        handle.touch()
        assert handle.service is not None
        ticket = handle.service.submit(
            images, max_queued_pixels=handle.config.max_queued_pixels, trace_id=trace_id
        )
        self._enforce_budget(keep=tenant_id)
        return ticket

    def poll(self, tenant_id: str, ticket: str) -> TicketStatus:
        """Poll one tenant's ticket (no reload: an evicted tenant's
        tickets died with its service, so the poll is a ``KeyError``
        just like an expired ticket)."""
        handle = self.get(tenant_id)
        handle.touch()
        if handle.service is None:
            raise KeyError(f"unknown ticket {ticket!r} (tenant {tenant_id!r} is evicted)")
        return handle.service.poll(ticket)

    def result(self, tenant_id: str, ticket: str, timeout: float | None = None) -> TicketStatus:
        """Block until one tenant's ticket resolves."""
        handle = self.get(tenant_id)
        handle.touch()
        if handle.service is None:
            raise KeyError(f"unknown ticket {ticket!r} (tenant {tenant_id!r} is evicted)")
        return handle.service.result(ticket, timeout=timeout)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, *, wait: bool = True) -> None:
        """Evict every tenant: drain its service and drop its ``Goggles``.

        Registrations survive (a closed registry could activate again),
        but normal callers simply drop the registry afterwards."""
        for tenant_id in self.tenant_ids():
            try:
                self.evict(tenant_id, wait=wait)
            except UnknownTenantError:  # pragma: no cover - concurrent remove
                continue

    def __enter__(self) -> "TenantRegistry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
