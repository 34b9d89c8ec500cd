"""``repro.obs``: the unified observability layer.

Three substrates, all strictly opt-in:

* **Metrics** (:mod:`repro.obs.registry`) — counters, gauges,
  log-bucket histograms and bounded time series, organized as labeled
  families in a :class:`MetricsRegistry`;
* **Events** (:mod:`repro.obs.events`) — the machine's probe bus
  (``machine.probes``, which every observer attaches to) and a typed,
  ordered, ring-buffered structured-event sink with JSONL/CSV export
  and schema validation;
* **Causal tracing** (:mod:`repro.obs.tracing`) — span trees following
  each coherence transaction end to end, with deterministic ids, an
  exact critical-path latency breakdown, and JSONL / Chrome trace
  export.

Instrumented code calls the module-level helpers (:func:`counter`,
:func:`gauge`, :func:`histogram`, :func:`series`, :func:`timer`).  With
no registry installed they return shared no-op objects, so the
uninstrumented hot path costs one global load and a ``None`` check; the
simulator's per-reference path goes further: its latency histogram is
an ``access`` probe, and with no probe attached the event loop pays a
single attribute test per scheduler turn and none per reference.

Install a registry process-wide with :func:`install` / :func:`uninstall`
or, more commonly, scoped::

    from repro import obs

    with obs.collecting() as registry:
        machine.run(workload)
    snapshot = registry.to_dict()

The campaign harness does exactly this around each cell when a
:class:`~repro.harness.session.Session` is created with
``collect_metrics=True``, and stores the snapshot in the result cache
next to the cell's statistics.
"""

from __future__ import annotations

import time as _time
from contextlib import contextmanager

from repro.obs.events import (EVENT_SCHEMA, EventSink, validate_event,
                              validate_jsonl)
from repro.obs.registry import (LATENCY_BUCKETS_CYCLES,
                                TIME_BUCKETS_SECONDS, Counter, Gauge,
                                Histogram, MetricsRegistry, Series,
                                find_metrics, metric_key, parse_key,
                                quantile, series_quantile)

__all__ = [
    "EVENT_SCHEMA", "EventSink", "LATENCY_BUCKETS_CYCLES",
    "TIME_BUCKETS_SECONDS", "Counter", "Gauge", "Histogram",
    "MetricsRegistry", "Series", "collecting", "counter", "current",
    "enabled", "find_metrics", "gauge", "histogram", "install",
    "metric_key", "parse_key", "quantile", "series", "series_quantile",
    "timer", "uninstall", "validate_event", "validate_jsonl",
]

#: The process-wide registry, or None (observability disabled).
_REGISTRY: "MetricsRegistry | None" = None


def install(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process-wide registry."""
    global _REGISTRY
    _REGISTRY = registry
    return registry


def uninstall() -> None:
    """Remove the installed registry (helpers become no-ops again)."""
    global _REGISTRY
    _REGISTRY = None


def current() -> "MetricsRegistry | None":
    """The installed registry, or None."""
    return _REGISTRY


def enabled() -> bool:
    """Is a registry installed?"""
    return _REGISTRY is not None


@contextmanager
def collecting(registry: "MetricsRegistry | None" = None):
    """Install a registry for the duration of a ``with`` block.

    Yields the registry (a fresh one unless given) and restores the
    previously installed registry — if any — on exit.
    """
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry if registry is not None else MetricsRegistry()
    try:
        yield _REGISTRY
    finally:
        _REGISTRY = previous


# ---------------------------------------------------------------------------
# No-op fallbacks: shared singletons, zero allocation on the disabled path.
# ---------------------------------------------------------------------------

class _NoopMetric:
    """Absorbs every metric operation; shared across all call sites."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass

    def sample(self, time, value) -> None:
        pass


class _NoopTimer:
    """A context manager that times nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopTimer":
        return self

    def __exit__(self, *exc) -> None:
        pass


NOOP_METRIC = _NoopMetric()
NOOP_TIMER = _NoopTimer()


class _Timer:
    """Times a ``with`` block into a histogram (wall-clock seconds)."""

    __slots__ = ("_histogram", "_started")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram

    def __enter__(self) -> "_Timer":
        self._started = _time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._histogram.observe(_time.perf_counter() - self._started)


# ---------------------------------------------------------------------------
# Module-level instrumentation helpers.
# ---------------------------------------------------------------------------

def counter(name: str, **labels):
    """The named counter, or a shared no-op when disabled."""
    registry = _REGISTRY
    if registry is None:
        return NOOP_METRIC
    return registry.counter(name, **labels)


def gauge(name: str, **labels):
    """The named gauge, or a shared no-op when disabled."""
    registry = _REGISTRY
    if registry is None:
        return NOOP_METRIC
    return registry.gauge(name, **labels)


def histogram(name: str, buckets=None, **labels):
    """The named histogram, or a shared no-op when disabled."""
    registry = _REGISTRY
    if registry is None:
        return NOOP_METRIC
    return registry.histogram(name, buckets=buckets, **labels)


def series(name: str, **labels):
    """The named time series, or a shared no-op when disabled."""
    registry = _REGISTRY
    if registry is None:
        return NOOP_METRIC
    return registry.series(name, **labels)


def timer(name: str, **labels):
    """A context manager timing its block into a seconds histogram
    (log buckets from 1 ms); a shared no-op when disabled."""
    registry = _REGISTRY
    if registry is None:
        return NOOP_TIMER
    return _Timer(registry.histogram(name, buckets=TIME_BUCKETS_SECONDS,
                                     **labels))
