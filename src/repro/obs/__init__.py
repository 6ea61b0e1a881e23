"""``repro.obs`` — observability for the whole verification pipeline.

Three instruments behind one per-run :class:`ObsContext`:

* a :class:`~repro.obs.metrics.MetricsRegistry` of typed counters, gauges
  and fixed-bucket histograms (always on; deterministic merge across
  scheduler worker processes);
* a :class:`~repro.obs.trace.Tracer` of hierarchical spans with Chrome
  trace-event JSON export (off by default; one attribute check per span
  when disabled);
* an :class:`~repro.obs.events.EventLog` of timestamped structured solver
  events (off by default).

The context is installed with :func:`use_obs` — a :class:`~contextvars.ContextVar`,
mirroring :class:`repro.smt.SmtContext`, so concurrent sessions in one
process never share instruments.  ``repro.service.VerifySession`` owns one
context per run and activates it around every job; bare library calls fall
back to a module-level default.

Usage from pipeline code::

    from repro import obs

    with obs.span("fixpoint", function=name):
        ...
    obs.metrics().counter("fixpoint.iterations").inc()

See ``docs/observability.md`` for the span taxonomy and metric catalogue.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

from repro.obs.events import EventLog
from repro.obs.metrics import (
    EXPLANATION_SIZE_BUCKETS,
    LATENCY_BUCKETS_SECONDS,
    PIVOT_BUCKETS,
    REQUEST_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    to_prometheus,
)
from repro.obs.trace import NOOP_SPAN, Tracer

__all__ = [
    "Counter",
    "EventLog",
    "EXPLANATION_SIZE_BUCKETS",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_SECONDS",
    "MetricError",
    "MetricsRegistry",
    "ObsContext",
    "PIVOT_BUCKETS",
    "REQUEST_LATENCY_BUCKETS",
    "Tracer",
    "current_obs",
    "events",
    "metrics",
    "set_obs",
    "span",
    "to_prometheus",
    "use_obs",
]


@dataclass
class ObsContext:
    """One run's observability instruments (registry, tracer, event log)."""

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=Tracer)
    events: EventLog = field(default_factory=EventLog)

    @classmethod
    def create(cls, trace: bool = False, events: bool = False) -> "ObsContext":
        registry = MetricsRegistry()
        # The tracer feeds per-phase time-share counters into the registry,
        # but only while tracing is on — time counters are inherently
        # nondeterministic, so the always-on registry stays free of them.
        tracer = Tracer(enabled=trace, registry=registry if trace else None)
        return cls(registry=registry, tracer=tracer, events=EventLog(enabled=events))

    def take_metrics(self) -> Dict[str, Dict[str, object]]:
        """The registry's snapshot, with a fresh registry in its place.

        The snapshot is what this context counted since the last take.  A
        worker process ships one take per unit of work (a ``--jobs``
        worker per function, a daemon worker per job), so its parent
        merges exact deltas, whichever worker did the work.
        """
        registry, self.registry = self.registry, MetricsRegistry()
        if self.tracer.registry is registry:
            self.tracer.registry = self.registry
        return registry.snapshot()


_DEFAULT_OBS = ObsContext()
_OBS_VAR: "ContextVar[ObsContext]" = ContextVar("repro_obs_context", default=_DEFAULT_OBS)


def current_obs() -> ObsContext:
    return _OBS_VAR.get()


def set_obs(context: Optional[ObsContext]) -> ObsContext:
    """Install ``context`` (or the default when ``None``); returns the old one."""
    previous = _OBS_VAR.get()
    _OBS_VAR.set(context if context is not None else _DEFAULT_OBS)
    return previous


@contextmanager
def use_obs(context: Optional[ObsContext]) -> Iterator[ObsContext]:
    previous = set_obs(context)
    try:
        yield _OBS_VAR.get()
    finally:
        set_obs(previous)


def span(name: str, **attrs: object) -> object:
    """A span on the current context's tracer (shared no-op when disabled)."""
    tracer = _OBS_VAR.get().tracer
    if not tracer.enabled:
        return NOOP_SPAN
    return tracer.span(name, **attrs)


def metrics() -> MetricsRegistry:
    """The current context's metrics registry."""
    return _OBS_VAR.get().registry


def events() -> EventLog:
    """The current context's structured event log."""
    return _OBS_VAR.get().events
