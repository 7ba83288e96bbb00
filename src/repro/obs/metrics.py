"""Process-wide metrics registry: counters, gauges, histograms.

Backends, drivers and the :class:`~repro.service.exchange_service.ExchangeService`
publish here instead of growing bespoke ``extra`` dicts.  The
:class:`~repro.shuffle.exchange.ExchangeReport` keeps its shape but
becomes a *view* over this registry: every report constructed publishes
its common fields and numeric extras as ``repro_exchange_*`` series.

Naming conventions (documented in the README "Observability" section):

* every series is prefixed ``repro_``;
* units are spelled out in the name (``_seconds``, ``_bytes``, ``_usd``,
  ``_total`` for counters), Prometheus style;
* labels are lowercase snake_case; values are stringified.

Determinism: the registry is pure interpreter-side state — dict and
list mutation, never sim events or RNG — so publishing from inside the
simulation cannot perturb it.
"""

from __future__ import annotations

import math
import re
import typing as t

LabelKey = t.Tuple[t.Tuple[str, str], ...]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_name(name: str) -> str:
    """Coerce an arbitrary key into a legal Prometheus metric name."""
    name = _NAME_RE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def nearest_rank(values: t.Iterable[float], q: float) -> float:
    """The nearest-rank q-quantile of non-empty ``values``.

    The smallest sample with at least ``q`` of the samples at or below
    it: ``sorted(values)[ceil(q * n) - 1]``, the first sample at q = 0.
    Every percentile the repo reports or gates on uses this one rule.
    """
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _label_key(labels: dict[str, str] | None) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count per label set."""

    kind = "counter"
    __slots__ = ("name", "help", "_series")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def samples(self) -> list[tuple[LabelKey, float]]:
        return sorted(self._series.items())


class Gauge:
    """Last-written value per label set (fills, watermarks, depths)."""

    kind = "gauge"
    __slots__ = ("name", "help", "_series")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: dict[LabelKey, float] = {}

    def set(self, value: float, **labels) -> None:
        self._series[_label_key(labels)] = float(value)

    def max(self, value: float, **labels) -> None:
        """Keep the high watermark of ``value`` for this label set."""
        key = _label_key(labels)
        current = self._series.get(key)
        if current is None or value > current:
            self._series[key] = float(value)

    def samples(self) -> list[tuple[LabelKey, float]]:
        return sorted(self._series.items())


class Histogram:
    """Bucketed distribution that keeps every observation.

    Simulation runs are small enough to keep them all, so
    :meth:`samples` hands readers exact values (quantiles by
    :func:`nearest_rank`) while the Prometheus exposition uses the
    configured cumulative buckets.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "_obs")

    DEFAULT_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0)

    def __init__(self, name: str, help: str = "", buckets: t.Sequence[float] | None = None):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets if buckets is not None else self.DEFAULT_BUCKETS))
        self._obs: dict[LabelKey, list[float]] = {}

    def observe(self, value: float, **labels) -> None:
        self._obs.setdefault(_label_key(labels), []).append(float(value))

    def samples(self) -> list[tuple[LabelKey, list[float]]]:
        return sorted((key, list(obs)) for key, obs in self._obs.items())


Metric = t.Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named collection of metrics; one per process by default.

    ``counter``/``gauge``/``histogram`` are get-or-create: repeat
    registrations with the same name return the existing instrument
    (help text from the first registration wins), so call sites don't
    need module-level metric globals.
    """

    def __init__(self):
        self._metrics: dict[str, Metric] = {}

    # -- get-or-create ------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(name, Gauge, help)

    def histogram(
        self, name: str, help: str = "", buckets: t.Sequence[float] | None = None
    ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, help, buckets)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    def _register(self, name: str, cls: type, help: str) -> t.Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        return metric

    # -- introspection -------------------------------------------------
    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def metrics(self) -> list[Metric]:
        return [self._metrics[name] for name in self.names()]

    def clear(self) -> None:
        self._metrics.clear()


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry everything publishes into."""
    return _REGISTRY


def reset_registry() -> MetricsRegistry:
    """Drop every series (tests and fresh CLI runs call this)."""
    _REGISTRY.clear()
    return _REGISTRY


# ----------------------------------------------------------------------
# publication helpers
# ----------------------------------------------------------------------

def publish_dedup_bytes(substrate: str, logical: float) -> None:
    """Count ``logical`` wire bytes a store's content dedup saved."""
    _REGISTRY.counter(
        "repro_dedup_bytes_total",
        "Wire bytes saved by content-addressed dedup",
    ).inc(logical, substrate=substrate)


def publish_exchange_report(report: t.Any) -> None:
    """Publish an ``ExchangeReport``'s fields as ``repro_exchange_*``.

    Called from ``ExchangeReport.__post_init__`` so every construction
    path — ``backend.report(...)``, the online sort's direct build, the
    service's per-job reports — lands in the registry uniformly.  The
    report object itself stays the ergonomic per-sort view; the registry
    holds the cross-run aggregate.
    """
    reg = _REGISTRY
    labels = {"substrate": report.substrate, "mode": report.extra.get("mode", "staged")}
    reg.counter(
        "repro_exchange_sorts_total", "Exchange reports constructed"
    ).inc(1, **labels)
    reg.gauge(
        "repro_exchange_workers", "Workers used by the last sort"
    ).set(report.workers, **labels)
    reg.gauge(
        "repro_exchange_actual_seconds", "Measured exchange duration"
    ).set(report.actual_s, **labels)
    if report.predicted_s is not None:
        reg.gauge(
            "repro_exchange_predicted_seconds", "Planner-predicted duration"
        ).set(report.predicted_s, **labels)
    reg.gauge(
        "repro_exchange_provisioned_usd", "Provisioned substrate cost"
    ).set(report.provisioned_usd, **labels)
    reg.gauge(
        "repro_exchange_overlap_seconds", "Map/reduce overlap (streaming)"
    ).set(report.overlap_s, **labels)
    reg.gauge(
        "repro_exchange_buffer_high_watermark_bytes", "Stream buffer peak"
    ).max(report.buffer_high_watermark_bytes, **labels)
    reg.gauge(
        "repro_exchange_partition_skew", "Max/mean partition size ratio"
    ).set(report.partition_skew, **labels)
    for key, value in report.extra.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        reg.gauge(
            f"repro_exchange_{sanitize_name(str(key))}",
            "Exchange report extra field",
        ).set(float(value), **labels)
