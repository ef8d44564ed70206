"""Cluster telemetry shipping: worker-side collection, broker-side merge.

Spawned distributed workers increment metrics in their own process'
:func:`~repro.obs.metrics.default_registry` — a registry no ``GET
/metrics`` scrape ever reaches.  This module closes that gap without a
push gateway or extra round-trips:

* :class:`TelemetryShipper` runs in the worker.  Each time the worker
  is about to report results it collects a
  :class:`~repro.obs.metrics.RegistrySnapshot` **delta** (what changed
  since the previous ship) plus the worker-side span records finished
  since the last frame, and the blob piggybacks on the very wire
  message that carries the results (``report_many`` / ``result-end`` /
  ``bye``).  Telemetry is therefore *atomic with the completions it
  covers*: if the message is lost, both the reports and their counters
  are lost together, the shards are re-leased elsewhere, and the books
  still balance.
* :class:`TelemetryMerger` runs next to the broker.  It folds each
  snapshot into the coordinator's scrape registry — families already
  carrying a ``worker`` label merge as-is (each worker owns its own
  series), families without one get ``worker=<source>`` appended — and
  re-records shipped spans into the local ring so
  :func:`~repro.obs.trace.recent_spans` sees one cross-process
  timeline.  Per-source sequence numbers make the merge idempotent
  under at-least-once delivery.

The shipper defaults to shipping only families whose label set includes
``worker`` (the ``goggles_worker_*`` instruments): cache and span
*histogram* families stay process-local, both to bound frame size and
because merging an unlabeled family from many sources into one shared
series would be ambiguous without the label append.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import (
    MetricsRegistry,
    RegistrySnapshot,
    capture_registry,
    default_registry,
    delta_snapshot,
)
from repro.obs.trace import SpanRecord, record_span, span_mark, spans_since

__all__ = [
    "TelemetryMerger",
    "TelemetryShipper",
    "span_from_payload",
    "span_to_payload",
]

#: Spans per telemetry frame (newest win; a worker that finished more
#: spans than this between flushes ships the most recent ones).
DEFAULT_MAX_SPANS_PER_FRAME = 128


def span_to_payload(record: SpanRecord) -> dict:
    return {
        "name": record.name,
        "trace_id": record.trace_id,
        "seconds": record.seconds,
        "outcome": record.outcome,
        "started_at": record.started_at,
    }


def span_from_payload(payload: object, worker: str | None = None) -> SpanRecord:
    """Rebuild a shipped span; raises ``ValueError`` on defects."""
    if not isinstance(payload, dict):
        raise ValueError(f"span payload must be a dict, got {type(payload).__name__}")
    name = payload.get("name")
    outcome = payload.get("outcome")
    trace_id = payload.get("trace_id")
    if not isinstance(name, str) or not name:
        raise ValueError(f"span payload has invalid name {name!r}")
    if outcome not in ("ok", "error"):
        raise ValueError(f"span payload has invalid outcome {outcome!r}")
    if trace_id is not None and not isinstance(trace_id, str):
        raise ValueError(f"span payload has invalid trace_id {trace_id!r}")
    try:
        seconds = float(payload.get("seconds", 0.0))
        started_at = float(payload.get("started_at", 0.0))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"span payload has non-numeric timing: {exc}") from None
    return SpanRecord(
        name=name,
        trace_id=trace_id,
        seconds=seconds,
        outcome=outcome,
        started_at=started_at,
        worker=worker,
    )


def _default_family_filter(name: str, labelnames: tuple[str, ...]) -> bool:
    return "worker" in labelnames


class TelemetryShipper:
    """Worker-side collector of registry deltas and fresh spans.

    ``collect()`` returns the next JSON-able telemetry payload (or
    ``None`` when nothing changed — idle workers ship nothing).  Each
    successful collect advances the baseline and the sequence number;
    the caller attaches the payload to an outgoing wire message.
    """

    def __init__(
        self,
        source: str,
        registry: MetricsRegistry | None = None,
        *,
        family_filter=_default_family_filter,
        ship_spans: bool = True,
        max_spans: int = DEFAULT_MAX_SPANS_PER_FRAME,
    ):
        if not source:
            raise ValueError("telemetry source must be a non-empty string")
        self.source = source
        self._registry = registry if registry is not None else default_registry()
        self._filter = family_filter
        self._ship_spans = bool(ship_spans)
        self._max_spans = int(max_spans)
        self._lock = threading.Lock()
        self._seq = 0
        self._baseline = capture_registry(self._registry, self._filter)
        self._span_mark = span_mark()

    @property
    def seq(self) -> int:
        with self._lock:
            return self._seq

    def collect(self) -> dict | None:
        """The next telemetry payload, or ``None`` if nothing changed."""
        with self._lock:
            current = capture_registry(self._registry, self._filter)
            snapshot = delta_snapshot(
                current, self._baseline, source=self.source, seq=self._seq + 1
            )
            spans: list[SpanRecord] = []
            if self._ship_spans:
                spans, new_mark = spans_since(self._span_mark)
            if snapshot.is_empty() and not spans:
                return None
            self._seq += 1
            self._baseline = current
            if self._ship_spans:
                self._span_mark = new_mark
            return {
                "snapshot": snapshot.to_payload(),
                "spans": [span_to_payload(s) for s in spans[-self._max_spans:]],
            }


class TelemetryMerger:
    """Broker/coordinator-side fold of shipped telemetry payloads.

    Thread-safe (each broker handler thread merges its own worker's
    frames).  Merge bookkeeping is itself observable::

        goggles_telemetry_frames_merged_total            frames applied
        goggles_telemetry_frames_skipped_total           stale/duplicate seq
        goggles_telemetry_merge_conflicts_total{metric}  family skipped
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else default_registry()
        self._lock = threading.Lock()
        self._last_seq: dict[str, int] = {}
        self.m_merged = self.registry.counter(
            "goggles_telemetry_frames_merged_total",
            "Worker telemetry frames merged into the scrape registry.",
        )
        self.m_skipped = self.registry.counter(
            "goggles_telemetry_frames_skipped_total",
            "Worker telemetry frames dropped as duplicate or stale (seq replay).",
        )
        self.m_conflicts = self.registry.counter(
            "goggles_telemetry_merge_conflicts_total",
            "Telemetry families skipped because they clash with a local registration.",
            labelnames=("metric",),
        )

    def merge(self, payload: object) -> bool:
        """Apply one telemetry payload; returns True if it was applied.

        Raises ``ValueError`` for malformed payloads (the broker turns
        that into a counted protocol error); duplicate sequence numbers
        return ``False`` without touching the registry.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"telemetry payload must be a dict, got {type(payload).__name__}")
        snapshot = RegistrySnapshot.from_payload(payload.get("snapshot"))
        spans_raw = payload.get("spans", [])
        if not isinstance(spans_raw, list):
            raise ValueError("telemetry spans must be a list")
        spans = [span_from_payload(item, worker=snapshot.source) for item in spans_raw]
        with self._lock:
            if snapshot.seq <= self._last_seq.get(snapshot.source, 0):
                self.m_skipped.inc()
                return False
            self._last_seq[snapshot.source] = snapshot.seq
        self._apply(snapshot)
        for record in spans:
            record_span(record)
        self.m_merged.inc()
        return True

    # -- internals --------------------------------------------------------

    def _resolve(self, entry: dict, source: str) -> tuple[tuple[str, ...], bool]:
        """(effective labelnames, whether to append the source value)."""
        labelnames = tuple(str(label) for label in entry["labelnames"])
        if "worker" in labelnames:
            return labelnames, False
        return (*labelnames, "worker"), True

    def _apply(self, snapshot: RegistrySnapshot) -> None:
        source = snapshot.source
        for name, entry in snapshot.counters.items():
            labelnames, append = self._resolve(entry, source)
            try:
                counter = self.registry.counter(name, entry.get("help", ""), labelnames)
                for key, delta in entry["series"]:
                    values = [*map(str, key), source] if append else list(map(str, key))
                    counter.inc(float(delta), **dict(zip(labelnames, values)))
            except (TypeError, ValueError):
                self.m_conflicts.inc(metric=name)
        for name, entry in snapshot.gauges.items():
            labelnames, append = self._resolve(entry, source)
            try:
                gauge = self.registry.gauge(name, entry.get("help", ""), labelnames)
                for key, value in entry["series"]:
                    values = [*map(str, key), source] if append else list(map(str, key))
                    gauge.set(float(value), **dict(zip(labelnames, values)))
            except (TypeError, ValueError):
                self.m_conflicts.inc(metric=name)
        for name, entry in snapshot.histograms.items():
            labelnames, append = self._resolve(entry, source)
            try:
                histogram = self.registry.histogram(
                    name,
                    entry.get("help", ""),
                    labelnames,
                    buckets=tuple(float(b) for b in entry["buckets"]),
                )
                if list(histogram.buckets) != [float(b) for b in entry["buckets"]]:
                    raise ValueError("bucket layout mismatch")
                for key, sample in entry["series"]:
                    values = [*map(str, key), source] if append else list(map(str, key))
                    histogram.add_raw(
                        [int(c) for c in sample["counts"]],
                        float(sample.get("sum", 0.0)),
                        **dict(zip(labelnames, values)),
                    )
            except (KeyError, TypeError, ValueError):
                self.m_conflicts.inc(metric=name)
