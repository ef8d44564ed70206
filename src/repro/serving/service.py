"""A long-lived streaming labeling service over the staged engines.

GOGGLES as batch code labels a corpus and exits; a production labeler
faces a *stream*: images keep arriving and each wants a probabilistic
label soon, without refitting the world per arrival.  The
:class:`LabelingService` wraps one :class:`~repro.core.goggles.Goggles`
instance behind ``submit(images) -> ticket`` / ``poll(ticket)``
semantics:

* ``submit`` enqueues images and returns immediately with a ticket;
* a single background worker drains the queue, coalescing every
  submission that arrived while the previous batch was running into
  one :meth:`~repro.core.goggles.Goggles.label_incremental` call
  (incremental affinity extension + warm-started EM — the marginal
  cost of an arrival, not a rebuild);
* ``poll``/``result`` return class-aligned probabilistic labels for
  exactly the submitted rows.

The worker is the only thread that touches the underlying ``Goggles``
object, so the engines need no internal locking; the service's own
bookkeeping is guarded by one condition variable.  Each processed
batch permanently extends the corpus, and later posteriors absorb all
earlier arrivals — the streaming analogue of the paper's "unlabeled +
dev images together" protocol (§2.2).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.goggles import Goggles, GogglesResult
from repro.datasets.base import DevSet
from repro.obs import MetricsRegistry, default_registry, span, trace_context
from repro.online import OnlineConfig, OnlineSession

__all__ = ["BackPressureError", "LabelingService", "TicketStatus", "SERVICE_MODES"]

SERVICE_MODES = ("batch", "online")


class BackPressureError(RuntimeError):
    """A submission was shed because the queue is at its pixel bound."""

    def __init__(self, queued_pixels: int, incoming: int, bound: int):
        self.queued_pixels = queued_pixels
        self.incoming = incoming
        self.bound = bound
        super().__init__(
            f"labeling queue is full: {queued_pixels} pixels queued + {incoming} "
            f"incoming would exceed the bound of {bound}; retry later"
        )


@dataclass(frozen=True)
class TicketStatus:
    """Snapshot of one submission's progress.

    Attributes:
        ticket: the ticket id returned by :meth:`LabelingService.submit`.
        state: ``"pending"`` (queued or in flight), ``"done"``, or
            ``"failed"``.
        probabilistic_labels: ``(M, K)`` class-aligned labels for the
            submitted rows, once ``done``.
        error: the failure description, once ``failed``.
    """

    ticket: str
    state: str
    probabilistic_labels: np.ndarray | None = None
    error: str | None = None

    @property
    def done(self) -> bool:
        return self.state == "done"

    @property
    def predictions(self) -> np.ndarray:
        """Hard labels (argmax); only valid once ``done``."""
        if self.probabilistic_labels is None:
            raise RuntimeError(f"ticket {self.ticket} is {self.state}, labels not available")
        return self.probabilistic_labels.argmax(axis=1)


@dataclass
class _Submission:
    ticket: str
    images: np.ndarray | None  # released once the batch is processed
    trace_id: str | None = None  # threaded from the HTTP front-end
    submitted_at: float = 0.0
    resolved: threading.Event = field(default_factory=threading.Event)
    status: TicketStatus | None = None


class LabelingService:
    """Streaming ``submit``/``poll`` front-end over incremental labeling.

    Parameters:
        goggles: the pipeline to serve.  The service owns it from
            :meth:`start` on; no other code should drive it concurrently.
        dev_set: the development set used for cluster→class mapping.
            Its indices must refer to the *initial* corpus passed to
            :meth:`start` (they stay valid as the corpus grows, since
            arrivals append after the existing rows).
        max_batch: cap on submissions coalesced into one incremental
            run; ``None`` drains everything queued.
        warm_start: warm-start inference on each batch (default); the
            escape hatch mirrors ``Goggles.label_incremental``.
        ticket_retention: resolved tickets kept for ``poll``/``result``
            before the oldest are expired (a long-lived service must
            not accumulate every result ever produced; submitted images
            are already released as soon as their batch is processed).
        mode: ``"batch"`` (each coalesced batch is a full
            ``label_incremental`` run that grows the corpus) or
            ``"online"`` (batches are absorbed by the O(batch)
            mini-batch EM of an :class:`~repro.online.OnlineSession`,
            which only escalates to a full refit on drift or schedule —
            see ENGINE.md, "Online stages").
        online: online-loop knobs for ``mode="online"``; defaults to
            ``goggles.config.online`` and then :class:`OnlineConfig`.
        tenant: tenant id this service serves under.  Tickets are
            namespaced ``<tenant>-t<counter>`` and every serving metric
            carries the id as a ``tenant`` label, so a multi-tenant
            process (:class:`~repro.serving.registry.TenantRegistry`)
            can attribute queue depth, sheds, and latency per tenant.
    """

    def __init__(
        self,
        goggles: Goggles,
        dev_set: DevSet,
        *,
        max_batch: int | None = None,
        warm_start: bool = True,
        ticket_retention: int = 1024,
        mode: str = "batch",
        online: OnlineConfig | None = None,
        registry: MetricsRegistry | None = None,
        tenant: str = "default",
    ):
        if max_batch is not None and max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if mode not in SERVICE_MODES:
            raise ValueError(f"mode must be one of {SERVICE_MODES}, got {mode!r}")
        if ticket_retention < 1:
            raise ValueError(f"ticket_retention must be >= 1, got {ticket_retention}")
        if not tenant:
            raise ValueError("tenant must be a non-empty id")
        if not goggles.config.keep_corpus_state:
            raise ValueError(
                "LabelingService needs keep_corpus_state=True: incremental "
                "labeling extends the retained corpus state"
            )
        self.goggles = goggles
        self.dev_set = dev_set
        self.max_batch = max_batch
        self.warm_start = warm_start
        self.ticket_retention = ticket_retention
        self.mode = mode
        self.tenant = tenant
        self._online_config = online
        self.session: OnlineSession | None = None
        self._cond = threading.Condition()
        self._queue: list[_Submission] = []
        self._tickets: dict[str, _Submission] = {}
        self._resolved_order: list[str] = []
        self._counter = 0
        self._worker: threading.Thread | None = None
        self._stopping = False
        self._inflight_pixels = 0
        self.registry = registry or default_registry()
        self._init_metrics()

    def _init_metrics(self) -> None:
        """Declare the serving metric family (see ENGINE.md catalogue).

        Every family carries a ``tenant`` label so one registry can
        host many tenants' services without the series colliding.
        """
        reg = self.registry
        self._m_submits = reg.counter(
            "goggles_service_submits_total", "Submissions accepted by LabelingService.submit.",
            labelnames=("tenant",),
        )
        self._m_shed = reg.counter(
            "goggles_service_shed_total",
            "Submissions shed by the back-pressure bound (BackPressureError).",
            labelnames=("tenant",),
        )
        self._m_batches = reg.counter(
            "goggles_service_batches_total", "Coalesced batches executed, by mode.",
            labelnames=("mode", "tenant"),
        )
        self._m_labeled = reg.counter(
            "goggles_service_labeled_rows_total", "Streamed rows labeled (seed corpus excluded).",
            labelnames=("tenant",),
        )
        self._m_resolved = reg.counter(
            "goggles_service_tickets_resolved_total", "Tickets resolved, by final state.",
            labelnames=("state", "tenant"),
        )
        self._m_expired = reg.counter(
            "goggles_service_tickets_expired_total",
            "Resolved tickets expired past ticket_retention.",
            labelnames=("tenant",),
        )
        self._m_batch_seconds = reg.histogram(
            "goggles_service_batch_seconds",
            "Wall time of one coalesced labeling batch, by mode.",
            labelnames=("mode", "tenant"),
        )
        self._m_ticket_seconds = reg.histogram(
            "goggles_service_ticket_seconds",
            "Submit-to-resolution latency of individual tickets.",
            labelnames=("tenant",),
        )
        # Queue-depth gauges read live service state at scrape time, so
        # the hot path never updates them; a later service for the same
        # tenant re-binds its own series.
        reg.gauge(
            "goggles_service_queued_pixels",
            "Array elements of submissions queued or in flight.",
            labelnames=("tenant",),
        ).set_function(lambda: self.queued_pixels, tenant=self.tenant)
        reg.gauge(
            "goggles_service_tickets_outstanding",
            "Submitted tickets not yet resolved.",
            labelnames=("tenant",),
        ).set_function(lambda: self.tickets_outstanding, tenant=self.tenant)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, corpus_images: np.ndarray) -> GogglesResult:
        """Build the initial corpus and start the background worker.

        Returns the initial labeling result (the same object a direct
        ``goggles.label`` call would have produced), so callers can
        read labels for the seed corpus without a ticket.
        """
        if self._worker is not None:
            raise RuntimeError("LabelingService.start may only be called once")
        result = self.goggles.label(corpus_images, self.dev_set)
        if self.mode == "online":
            config = self._online_config or self.goggles.config.online or OnlineConfig()
            self.session = OnlineSession(
                self.goggles, self.dev_set, result, config,
                registry=self.registry, tenant=self.tenant,
            )
        self._worker = threading.Thread(target=self._run, name="labeling-service-worker", daemon=True)
        self._worker.start()
        return result

    def stop(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for the worker.

        Already-queued submissions are still processed before the
        worker exits — stop is a drain, not an abort.  Idempotent.
        """
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        if wait and self._worker is not None:
            self._worker.join()

    def __enter__(self) -> "LabelingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._worker is not None and self._worker.is_alive()

    @property
    def corpus_size(self) -> int:
        """Instances the underlying corpus currently holds."""
        state = self.goggles.engine.state
        return 0 if state is None else state.n_images

    @property
    def n_batches(self) -> int:
        """Coalesced batches executed so far, failed ones included.

        Like :attr:`n_labeled`, read from :attr:`registry`: the total of
        every service counting into it under this tenant id (and mode).
        """
        return int(self._m_batches.value(mode=self.mode, tenant=self.tenant))

    @property
    def n_labeled(self) -> int:
        """Streamed instances labeled so far (excludes the seed corpus)."""
        return int(self._m_labeled.value(tenant=self.tenant))

    @property
    def tickets_outstanding(self) -> int:
        """Submitted tickets not yet resolved (queued or in flight) — the
        queue-depth signal a load balancer should watch next to
        :attr:`queued_pixels`."""
        with self._cond:
            return sum(1 for s in self._tickets.values() if s.status is None)

    @property
    def online_stats(self) -> dict | None:
        """The online session's drift/step snapshot (``None`` in batch mode)."""
        return None if self.session is None else self.session.stats()

    @property
    def queued_pixels(self) -> int:
        """Array elements of every submission not yet labeled (queued or
        in flight) — the quantity the HTTP front-end's back-pressure
        bound is measured in."""
        with self._cond:
            queued = sum(s.images.size for s in self._queue if s.images is not None)
            return queued + self._inflight_pixels

    # ------------------------------------------------------------------
    # Submit / poll
    # ------------------------------------------------------------------
    def submit(
        self,
        images: np.ndarray,
        max_queued_pixels: int | None = None,
        trace_id: str | None = None,
    ) -> str:
        """Enqueue ``(M, C, H, W)`` images; returns a ticket id.

        ``max_queued_pixels`` makes the call shed load instead: when the
        currently queued + in-flight pixels plus this batch would exceed
        the bound, :class:`BackPressureError` is raised.  The check and
        the enqueue happen under one lock, so concurrent submitters
        (e.g. the threaded HTTP front-end) cannot jointly overshoot.
        ``trace_id`` tags the submission so spans recorded while its
        batch executes can be tied back to the originating request.
        """
        images = np.asarray(images)
        if images.ndim != 4 or images.shape[0] == 0:
            raise ValueError(f"expected a non-empty (M, C, H, W) batch, got shape {images.shape}")
        with self._cond:
            if self._worker is None:
                raise RuntimeError("call start() before submit()")
            if self._stopping:
                raise RuntimeError("LabelingService is stopped")
            if max_queued_pixels is not None:
                backlog = self._inflight_pixels + sum(
                    s.images.size for s in self._queue if s.images is not None
                )
                if backlog + images.size > max_queued_pixels:
                    self._m_shed.inc(tenant=self.tenant)
                    raise BackPressureError(backlog, images.size, max_queued_pixels)
            self._counter += 1
            # Tenant-namespaced: a ticket id can never resolve under a
            # different tenant's service, even with equal counters.
            ticket = f"{self.tenant}-t{self._counter:06d}"
            submission = _Submission(
                ticket=ticket, images=images, trace_id=trace_id, submitted_at=time.monotonic()
            )
            self._queue.append(submission)
            self._tickets[ticket] = submission
            self._cond.notify_all()
        self._m_submits.inc(tenant=self.tenant)
        return ticket

    def poll(self, ticket: str) -> TicketStatus:
        """Non-blocking status snapshot for a ticket."""
        with self._cond:
            submission = self._tickets.get(ticket)
        if submission is None:
            raise KeyError(f"unknown ticket {ticket!r}")
        if submission.status is None:
            return TicketStatus(ticket=ticket, state="pending")
        return submission.status

    def result(self, ticket: str, timeout: float | None = None) -> TicketStatus:
        """Block until a ticket resolves; raises TimeoutError on expiry."""
        with self._cond:
            submission = self._tickets.get(ticket)
        if submission is None:
            raise KeyError(f"unknown ticket {ticket!r}")
        if not submission.resolved.wait(timeout):
            raise TimeoutError(f"ticket {ticket} did not resolve within {timeout}s")
        assert submission.status is not None
        return submission.status

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopping:
                    self._cond.wait()
                if not self._queue and self._stopping:
                    return
                take = len(self._queue) if self.max_batch is None else self.max_batch
                batch, self._queue = self._queue[:take], self._queue[take:]
                self._inflight_pixels = sum(s.images.size for s in batch if s.images is not None)
            try:
                self._process(batch)
            finally:
                with self._cond:
                    self._inflight_pixels = 0

    def _process(self, batch: list[_Submission]) -> None:
        sizes = [s.images.shape[0] for s in batch]
        # A coalesced batch may merge several submissions; the first
        # submission's trace id names the batch (its span ring records
        # which tickets rode along via the resolution counters).
        batch_trace = next((s.trace_id for s in batch if s.trace_id is not None), None)
        started = time.perf_counter()
        try:
            images = (
                batch[0].images
                if len(batch) == 1
                else np.concatenate([s.images for s in batch], axis=0)
            )
            with trace_context(batch_trace), span("service.batch", self.registry):
                if self.session is not None:
                    # Online mode: O(batch) absorb; the session only runs a
                    # full (corpus-growing) refit when its drift monitor or
                    # refit schedule escalates.
                    labels = self.session.absorb(images)
                else:
                    # label_incremental is atomic: on failure the corpus rolls
                    # back, so a failed ticket's images are truly not absorbed
                    # and the submission can simply be retried.
                    labels = self.goggles.label_incremental(
                        images, self.dev_set, warm_start=self.warm_start
                    ).probabilistic_labels[-images.shape[0] :]
        except Exception as error:  # noqa: BLE001 - a bad batch must not kill the worker
            self._m_batch_seconds.observe(
                time.perf_counter() - started, mode=self.mode, tenant=self.tenant
            )
            self._m_batches.inc(mode=self.mode, tenant=self.tenant)
            self._resolve(
                batch,
                [TicketStatus(ticket=s.ticket, state="failed", error=str(error)) for s in batch],
            )
            return
        self._m_batch_seconds.observe(
            time.perf_counter() - started, mode=self.mode, tenant=self.tenant
        )
        offset = 0
        statuses = []
        for submission, rows in zip(batch, sizes):
            statuses.append(
                TicketStatus(
                    ticket=submission.ticket,
                    state="done",
                    probabilistic_labels=labels[offset : offset + rows],
                )
            )
            offset += rows
        # Count before resolving, so a caller woken by its ticket reads
        # n_batches and n_labeled that already include its batch.
        self._m_batches.inc(mode=self.mode, tenant=self.tenant)
        self._m_labeled.inc(int(labels.shape[0]), tenant=self.tenant)
        self._resolve(batch, statuses)

    def _resolve(self, batch: list[_Submission], statuses: list[TicketStatus]) -> None:
        """Publish statuses, release the submitted pixels, expire old tickets."""
        now = time.monotonic()
        with self._cond:
            for submission, status in zip(batch, statuses):
                submission.status = status
                submission.images = None  # the corpus/state hold what is needed
                submission.resolved.set()
                self._resolved_order.append(submission.ticket)
                self._m_resolved.inc(state=status.state, tenant=self.tenant)
                if submission.submitted_at:
                    self._m_ticket_seconds.observe(now - submission.submitted_at, tenant=self.tenant)
            while len(self._resolved_order) > self.ticket_retention:
                self._tickets.pop(self._resolved_order.pop(0), None)
                self._m_expired.inc(tenant=self.tenant)
