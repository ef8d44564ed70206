"""A dependency-free metrics registry: counters, gauges, histograms.

Every layer counts through one export path: a process-wide
:class:`MetricsRegistry` of named metrics that renders as `Prometheus
text exposition format`_ (scraped by ``GET /metrics`` on the HTTP
front-end, dumped by ``goggles-repro metrics``).  In serving and in
the artifact cache the registry is the *only* store: no object keeps
an attribute copy of a count, so a count read through one of its
objects is that registry's total.

Design constraints, in order:

* **stdlib only** — the registry must import anywhere (benchmarks,
  the CLI, the serving front-end) without adding a dependency;
* **thread-safe** — the HTTP front-end handles requests on many
  threads while each tenant's service worker counts its batches;
  every update takes one per-metric lock around a dict upsert;
* **near-zero overhead when unused** — a metric that nothing
  increments costs one dict entry; instrumented hot paths pay one lock
  + float add per *event* (per request, per batch, per cache read —
  never per row);
* **get-or-create semantics** — two components may declare the same
  metric name (two services in one test process); they share the
  instrument, like ``prometheus_client``.

.. _Prometheus text exposition format:
   https://prometheus.io/docs/instrumenting/exposition_formats/
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "default_registry",
    "filter_exposition",
]

#: Fixed latency buckets (seconds) shared by every ``*_seconds``
#: histogram, so serving dashboards can aggregate across metric
#: families without bucket realignment.  Upper bounds are cumulative
#: (Prometheus ``le`` semantics); +Inf is implicit.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r"\"")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _Metric:
    """Shared machinery: label validation and the per-metric lock."""

    type_name = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: dict[str, object]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _render_labels(self, key: tuple[str, ...], extra: str = "") -> str:
        pairs = [f'{name}="{_escape_label_value(value)}"' for name, value in zip(self.labelnames, key)]
        if extra:
            pairs.append(extra)
        return "{" + ",".join(pairs) + "}" if pairs else ""

    def _header(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.type_name}")
        return lines


class Counter(_Metric):
    """A monotonically increasing sum, optionally split by labels."""

    type_name = "counter"

    def __init__(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()):
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc by {amount})")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum over every label combination (the /healthz roll-up)."""
        with self._lock:
            return sum(self._values.values()) if self._values else 0.0

    def series(self) -> dict[tuple[str, ...], float]:
        """Every labeled series as ``{label-values: value}`` (a copy)."""
        with self._lock:
            return dict(self._values)

    def collect(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        lines = self._header()
        if not items and not self.labelnames:
            items = [((), 0.0)]
        for key, value in items:
            lines.append(f"{self.name}{self._render_labels(key)} {_format_value(value)}")
        return lines


class Gauge(_Metric):
    """A value that can go up and down — or be read lazily at scrape
    time from a callback (:meth:`set_function`), which keeps hot paths
    free of bookkeeping for quantities something already tracks
    (queue depth, buffer fill)."""

    type_name = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()):
        super().__init__(name, help, labelnames)
        self._values: dict[tuple[str, ...], float] = {}
        self._functions: dict[tuple[str, ...], object] = {}

    def set(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._functions.pop(key, None)
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def set_function(self, fn, **labels: object) -> None:
        """Read this series from ``fn()`` at every scrape (last caller
        wins — a restarted service re-binds its own gauges)."""
        key = self._key(labels)
        with self._lock:
            self._values.pop(key, None)
            self._functions[key] = fn

    def value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            fn = self._functions.get(key)
            if fn is None:
                return self._values.get(key, 0.0)
        try:
            return float(fn())
        except Exception:  # noqa: BLE001 - mirror collect(): dead callbacks read as NaN
            return math.nan

    def collect(self) -> list[str]:
        with self._lock:
            items = dict(self._values)
            functions = dict(self._functions)
        for key, fn in functions.items():
            try:
                items[key] = float(fn())
            except Exception:  # noqa: BLE001 - a dead callback must not kill a scrape
                items[key] = math.nan
        lines = self._header()
        if not items and not self.labelnames:
            items = {(): 0.0}
        for key, value in sorted(items.items()):
            lines.append(f"{self.name}{self._render_labels(key)} {_format_value(value)}")
        return lines


class Histogram(_Metric):
    """Observations bucketed under fixed upper bounds (Prometheus
    cumulative ``le`` semantics), plus running sum and count."""

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram {name!r} has duplicate bucket bounds")
        self.buckets = bounds
        # Per label-set: [per-bucket counts..., +Inf count], sum.
        self._counts: dict[tuple[str, ...], list[int]] = {}
        self._sums: dict[tuple[str, ...], float] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        index = bisect_left(self.buckets, value)
        with self._lock:
            counts = self._counts.get(key)
            if counts is None:
                counts = self._counts[key] = [0] * (len(self.buckets) + 1)
            counts[index] += 1
            self._sums[key] = self._sums.get(key, 0.0) + value

    def count(self, **labels: object) -> int:
        key = self._key(labels)
        with self._lock:
            return sum(self._counts.get(key, ()))

    def sum(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            return self._sums.get(key, 0.0)

    def bucket_counts(self, **labels: object) -> dict[float, int]:
        """Cumulative count per upper bound (``math.inf`` included)."""
        key = self._key(labels)
        with self._lock:
            raw = list(self._counts.get(key, [0] * (len(self.buckets) + 1)))
        cumulative: dict[float, int] = {}
        running = 0
        for bound, count in zip((*self.buckets, math.inf), raw):
            running += count
            cumulative[bound] = running
        return cumulative

    def collect(self) -> list[str]:
        with self._lock:
            counts = {key: list(values) for key, values in self._counts.items()}
            sums = dict(self._sums)
        lines = self._header()
        items = sorted(counts.items())
        if not items and not self.labelnames:
            items = [((), [0] * (len(self.buckets) + 1))]
            sums[()] = 0.0
        for key, raw in items:
            running = 0
            for bound, count in zip(self.buckets, raw):
                running += count
                extra = f'le="{_format_value(bound)}"'
                lines.append(f"{self.name}_bucket{self._render_labels(key, extra)} {running}")
            running += raw[-1]
            inf_label = 'le="+Inf"'
            lines.append(f"{self.name}_bucket{self._render_labels(key, inf_label)} {running}")
            lines.append(f"{self.name}_sum{self._render_labels(key)} {_format_value(sums.get(key, 0.0))}")
            lines.append(f"{self.name}_count{self._render_labels(key)} {running}")
        return lines


class MetricsRegistry:
    """Named metrics with get-or-create registration and one renderer.

    One process-wide instance (:func:`default_registry`) backs
    production serving; tests that assert exact totals construct their
    own and pass it into the component under test.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, labelnames: tuple[str, ...], **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.type_name}, "
                        f"requested {cls.type_name}"
                    )
                if tuple(labelnames) != existing.labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, requested {tuple(labelnames)}"
                    )
                return existing
            metric = cls(name, help, tuple(labelnames), **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: tuple[str, ...] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.collect())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict[str, dict[str, float]]:
        """JSON-friendly ``{metric: {rendered labels: value}}`` dump.

        Histograms contribute their ``_sum`` and ``_count`` series;
        bucket lines are omitted (read :meth:`render` for those).
        """
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        for metric in metrics:
            series: dict[str, float] = {}
            for line in metric.collect():
                if line.startswith("#") or "_bucket{" in line or line.startswith(f"{metric.name}_bucket "):
                    continue
                name_part, value_part = line.rsplit(" ", 1)
                try:
                    series[name_part] = float(value_part)
                except ValueError:  # pragma: no cover - NaN/Inf renderings
                    series[name_part] = math.nan
            out[metric.name] = series
        return out


def filter_exposition(text: str, **labels: object) -> str:
    """Filter Prometheus text exposition down to matching label pairs.

    Keeps only sample lines whose label set carries *every* given
    ``name="value"`` pair exactly (``filter_exposition(text,
    tenant="alpha")`` is the ``/metrics?tenant=`` and ``goggles-repro
    metrics --tenant`` server/CLI filter).  ``# HELP``/``# TYPE``
    headers survive for families with at least one surviving sample;
    unlabeled samples and non-matching series are dropped.
    """
    needles = [f',{name}="{_escape_label_value(str(value))}"' for name, value in labels.items()]
    kept: list[str] = []
    header: list[str] = []
    header_name = ""
    flushed_name = ""
    for line in text.splitlines():
        if line.startswith("# "):
            parts = line.split(" ", 3)  # "# HELP <name> ..." / "# TYPE <name> <type>"
            name = parts[2] if len(parts) > 2 else ""
            if name != header_name:
                header, header_name = [], name
            header.append(line)
            continue
        brace = line.find("{")
        if brace < 0:
            continue  # an unlabeled sample cannot carry the pair
        # Normalising "{" to "," lets one needle form match the first
        # label pair too, and the closing quote in each needle prevents
        # prefix collisions (tenant="a" vs tenant="ab").
        hay = "," + line[brace + 1 : line.rfind("}")]
        if all(needle in hay for needle in needles):
            if header_name != flushed_name:
                kept.extend(header)
                flushed_name = header_name
            kept.append(line)
    return "\n".join(kept) + ("\n" if kept else "")


_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry every layer instruments by default."""
    return _DEFAULT
