"""Lightweight spans and request-scoped trace ids.

A production labeling request crosses four layers — HTTP handler →
:class:`~repro.serving.service.LabelingService` worker →
:class:`~repro.online.OnlineSession` / ``label_incremental`` →
:class:`~repro.engine.inference.InferenceEngine` — on *two different
threads* (the handler enqueues, the single service worker executes).
This module makes that journey observable without a tracing backend:

* a **trace id** rides a :class:`contextvars.ContextVar`; the HTTP
  layer mints one per submission (or honours the client's
  ``X-Trace-Id``), the service worker re-installs it around each
  coalesced batch, and every span recorded inside tags itself with it;
* :func:`span` is a context manager timing one named operation; each
  finished span feeds the shared ``goggles_span_seconds`` histogram
  (labels ``span``/``outcome``) and a bounded in-memory ring buffer
  (:func:`recent_spans`) that the CLI and tests can read back.

Overhead per span: two ``perf_counter`` calls, one histogram observe,
one deque append — paid per *stage* (absorb, refit, inference), never
per row.
"""

from __future__ import annotations

import contextvars
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry, default_registry

__all__ = [
    "SpanRecord",
    "current_trace_id",
    "new_trace_id",
    "recent_spans",
    "record_span",
    "span",
    "trace_context",
]

_TRACE_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar("goggles_trace_id", default=None)

#: Finished spans kept for inspection; bounded so a long-lived service
#: never accumulates them (the histogram holds the full distribution).
_RING_CAPACITY = 512
_ring: deque["SpanRecord"] = deque(maxlen=_RING_CAPACITY)
_ring_lock = threading.Lock()


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: what ran, under which trace, for how long.

    ``started_at`` is wall-clock (``time.time()``), the start a trace's
    timeline orders its spans by.
    """

    name: str
    trace_id: str | None
    seconds: float
    outcome: str  # "ok" or "error"
    started_at: float = 0.0


def new_trace_id() -> str:
    """A fresh 16-hex request id (no coordination, negligible collision)."""
    return uuid.uuid4().hex[:16]


def current_trace_id() -> str | None:
    """The trace id of the current context, if one is installed."""
    return _TRACE_ID.get()


@contextmanager
def trace_context(trace_id: str | None):
    """Install ``trace_id`` for the duration of the block.

    The service worker uses this to carry a submission's id from the
    HTTP thread that minted it onto the worker thread that executes it.
    """
    token = _TRACE_ID.set(trace_id)
    try:
        yield trace_id
    finally:
        _TRACE_ID.reset(token)


@contextmanager
def span(name: str, registry: MetricsRegistry | None = None):
    """Time one named operation; record outcome, duration, trace id.

    Records into ``goggles_span_seconds{span,outcome}`` on ``registry``
    (default: the process registry) and the in-memory ring buffer.  The
    exception, if any, propagates — a span never swallows failures, it
    only labels them ``outcome="error"``.
    """
    registry = registry or default_registry()
    histogram = registry.histogram(
        "goggles_span_seconds",
        "Wall time of traced spans by name and outcome.",
        labelnames=("span", "outcome"),
    )
    start = time.perf_counter()
    started_at = time.time()
    outcome = "ok"
    try:
        yield
    except BaseException:
        outcome = "error"
        raise
    finally:
        seconds = time.perf_counter() - start
        histogram.observe(seconds, span=name, outcome=outcome)
        record_span(
            SpanRecord(
                name=name,
                trace_id=_TRACE_ID.get(),
                seconds=seconds,
                outcome=outcome,
                started_at=started_at,
            )
        )


def record_span(record: SpanRecord) -> None:
    """Append an already-finished span to the ring buffer."""
    with _ring_lock:
        _ring.append(record)


def recent_spans(name: str | None = None, trace_id: str | None = None) -> list[SpanRecord]:
    """Finished spans still in the ring buffer, oldest first.

    Optionally filtered by span name and/or trace id — ``trace_id``
    filtering is how a test (or an operator in a REPL) follows one
    request across the thread hop.
    """
    with _ring_lock:
        records = list(_ring)
    if name is not None:
        records = [r for r in records if r.name == name]
    if trace_id is not None:
        records = [r for r in records if r.trace_id == trace_id]
    return records


def clear_spans() -> None:
    """Empty the ring buffer (test isolation helper)."""
    with _ring_lock:
        _ring.clear()
