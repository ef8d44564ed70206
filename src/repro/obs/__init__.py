"""Observability spine: metrics registry, Prometheus rendering, spans.

See ENGINE.md, "Observability" for the metric-name catalogue and the
trace-id propagation path.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    filter_exposition,
)
from repro.obs.trace import (
    SpanRecord,
    clear_spans,
    current_trace_id,
    new_trace_id,
    recent_spans,
    record_span,
    span,
    trace_context,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecord",
    "clear_spans",
    "current_trace_id",
    "default_registry",
    "filter_exposition",
    "new_trace_id",
    "recent_spans",
    "record_span",
    "span",
    "trace_context",
]
