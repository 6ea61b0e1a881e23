"""Typed metrics: counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` replaces the scattered ad-hoc stats dicts that
used to be hand-threaded through ``SolverAnswer.stats`` → ``FixpointResult``
→ ``FunctionReport``.  Every layer of the pipeline registers its metrics by
name (registration is idempotent, so call sites never coordinate) and
increments them through typed handles:

* :class:`Counter` — monotone totals (queries, conflicts, cache hits);
* :class:`Gauge` — last-written values (merge takes the max, the only
  order-independent choice for per-process high-water marks);
* :class:`Histogram` — fixed-bucket distributions (query latency,
  explanation size, simplex pivots per check).

Registries are cheap plain-Python objects.  Worker processes each own one,
:meth:`MetricsRegistry.snapshot` turns it into a picklable dict, and
:meth:`MetricsRegistry.merge` folds snapshots into the session registry with
deterministic semantics: counters and histograms add, gauges take the max —
so a serial run and a ``--jobs N`` run of the same program report identical
counter totals.

:func:`to_prometheus` renders a snapshot in the Prometheus text exposition
format (the direct prerequisite for the future daemon's ``/metrics``
endpoint); dots in metric names become underscores there, e.g.
``smt.queries`` → ``repro_smt_queries_total``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Query latency buckets in seconds.  One-shot solver queries cluster in the
#: 1–50 ms range on the Table 1 programs; the tails catch pathological
#: instantiated-baseline queries.
LATENCY_BUCKETS_SECONDS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Theory-conflict explanation sizes in literals.  Simplex cores (a bound
#: clash or one row) pass through as they are; drop-one shrinking only trims
#: branch-and-bound fallback cores of 4–48 literals (see
#: ``repro.smt.theory``).  1–2 literal cores dominate.
EXPLANATION_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48)

#: Simplex pivots per satisfiability check.  Most checks re-use a warm
#: tableau and pivot a handful of times; from-scratch checks go far higher.
PIVOT_BUCKETS: Tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)

#: Daemon request/job latency buckets in seconds.  HTTP handling and warm
#: cache-served jobs live in the millisecond range; cold verification of a
#: slow Table-1 program reaches tens of seconds (see ``repro.daemon``).
REQUEST_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0,
)


class MetricError(ValueError):
    """A metric was re-registered at a different kind or bucket layout."""


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "help", "unit", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = "", unit: str = "") -> None:
        self.name = name
        self.help = help
        self.unit = unit
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """A last-written value (merge takes the per-process maximum)."""

    __slots__ = ("name", "help", "unit", "value")
    kind = "gauge"

    def __init__(self, name: str, help: str = "", unit: str = "") -> None:
        self.name = name
        self.help = help
        self.unit = unit
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """A fixed-bucket distribution with sum and count.

    ``buckets`` are inclusive upper bounds in ascending order; an implicit
    +Inf bucket catches the overflow.  ``counts[i]`` is the number of
    observations with ``value <= buckets[i]`` exclusive of earlier buckets
    (per-bucket, *not* cumulative — the Prometheus renderer accumulates).
    """

    __slots__ = ("name", "help", "unit", "buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[Number],
        help: str = "",
        unit: str = "",
    ) -> None:
        ordered = tuple(buckets)
        if not ordered or list(ordered) != sorted(ordered):
            raise MetricError(f"histogram {name} needs ascending, non-empty buckets")
        self.name = name
        self.help = help
        self.unit = unit
        self.buckets = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.sum: Number = 0
        self.count = 0

    def observe(self, value: Number) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A flat, name-keyed collection of typed metrics.

    Lookup methods double as registration (idempotent): the first call for a
    name creates the metric, later calls return the same handle.  Asking for
    an existing name at a different kind (or different histogram buckets) is
    a :class:`MetricError` — silent coercion would corrupt merged totals.

    Registration, :meth:`snapshot`, :meth:`merge` and :meth:`clear` hold an
    internal lock, so one thread may scrape a registry (the daemon's
    ``/metrics`` handler) while another registers metrics into it.  Metric
    *mutation* (``inc``/``set``/``observe``) is deliberately lock-free: the
    owning contract is one mutating thread per registry at a time (workers
    are never shared between concurrent jobs — see
    :class:`repro.daemon.workers.WorkerPool`); concurrent *readers* at
    worst observe a value one update stale.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def counter(self, name: str, help: str = "", unit: str = "") -> Counter:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = Counter(name, help=help, unit=unit)
                self._metrics[name] = metric
            elif not isinstance(metric, Counter):
                raise MetricError(f"{name} is a {metric.kind}, not a counter")
            return metric

    def gauge(self, name: str, help: str = "", unit: str = "") -> Gauge:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = Gauge(name, help=help, unit=unit)
                self._metrics[name] = metric
            elif not isinstance(metric, Gauge):
                raise MetricError(f"{name} is a {metric.kind}, not a gauge")
            return metric

    def histogram(
        self,
        name: str,
        buckets: Sequence[Number],
        help: str = "",
        unit: str = "",
    ) -> Histogram:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = Histogram(name, buckets, help=help, unit=unit)
                self._metrics[name] = metric
            elif not isinstance(metric, Histogram):
                raise MetricError(f"{name} is a {metric.kind}, not a histogram")
            elif tuple(buckets) != metric.buckets:
                raise MetricError(
                    f"histogram {name} re-registered with different buckets"
                )
            return metric

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def value(self, name: str, default: Number = 0) -> Number:
        """The scalar value of a counter/gauge (histograms: the observation count)."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            return metric.count
        return metric.value

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    # -- snapshots and merging ------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A picklable, JSON-able dump of every metric, sorted by name."""
        out: Dict[str, Dict[str, object]] = {}
        with self._lock:
            names = sorted(self._metrics)
            for name in names:
                metric = self._metrics[name]
                entry: Dict[str, object] = {
                    "kind": metric.kind,
                    "help": metric.help,
                    "unit": metric.unit,
                }
                if isinstance(metric, Histogram):
                    entry["buckets"] = list(metric.buckets)
                    entry["counts"] = list(metric.counts)
                    entry["sum"] = metric.sum
                    entry["count"] = metric.count
                else:
                    entry["value"] = metric.value
                out[name] = entry
        return out

    def merge(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold a snapshot in: counters/histograms add, gauges take the max.

        Unknown names auto-register, so a session registry absorbs worker
        snapshots without pre-declaring every metric the workers emit.
        """
        for name, entry in snapshot.items():
            kind = entry.get("kind")
            if kind == "counter":
                self.counter(
                    name, help=str(entry.get("help", "")), unit=str(entry.get("unit", ""))
                ).value += entry.get("value", 0)
            elif kind == "gauge":
                gauge = self.gauge(
                    name, help=str(entry.get("help", "")), unit=str(entry.get("unit", ""))
                )
                gauge.value = max(gauge.value, entry.get("value", 0))
            elif kind == "histogram":
                histogram = self.histogram(
                    name,
                    entry.get("buckets", ()),
                    help=str(entry.get("help", "")),
                    unit=str(entry.get("unit", "")),
                )
                counts = entry.get("counts", ())
                if len(counts) != len(histogram.counts):
                    raise MetricError(f"histogram {name} merged with mismatched buckets")
                for index, count in enumerate(counts):
                    histogram.counts[index] += count
                histogram.sum += entry.get("sum", 0)
                histogram.count += entry.get("count", 0)
            else:
                raise MetricError(f"snapshot entry {name} has unknown kind {kind!r}")


# -- Prometheus text exposition ------------------------------------------------


def _prom_name(name: str, prefix: str) -> str:
    return prefix + name.replace(".", "_").replace("-", "_")


def _prom_value(value: Number) -> str:
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def to_prometheus(
    snapshot: Dict[str, Dict[str, object]], prefix: str = "repro_"
) -> str:
    """Render a registry snapshot in the Prometheus text exposition format.

    Counters get the conventional ``_total`` suffix; histograms expand to
    cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``.  Output
    is sorted by metric name, so two identical snapshots render identically.
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry["kind"]
        base = _prom_name(str(name), prefix)
        help_text = str(entry.get("help", "")).replace("\\", r"\\").replace("\n", r"\n")
        if kind == "counter":
            full = base + "_total"
            if help_text:
                lines.append(f"# HELP {full} {help_text}")
            lines.append(f"# TYPE {full} counter")
            lines.append(f"{full} {_prom_value(entry['value'])}")
        elif kind == "gauge":
            if help_text:
                lines.append(f"# HELP {base} {help_text}")
            lines.append(f"# TYPE {base} gauge")
            lines.append(f"{base} {_prom_value(entry['value'])}")
        elif kind == "histogram":
            if help_text:
                lines.append(f"# HELP {base} {help_text}")
            lines.append(f"# TYPE {base} histogram")
            cumulative = 0
            for bound, count in zip(entry["buckets"], entry["counts"]):
                cumulative += count
                lines.append(f'{base}_bucket{{le="{_prom_value(bound)}"}} {cumulative}')
            cumulative += entry["counts"][-1]
            lines.append(f'{base}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{base}_sum {_prom_value(entry['sum'])}")
            lines.append(f"{base}_count {entry['count']}")
        else:
            raise MetricError(f"snapshot entry {name} has unknown kind {kind!r}")
    return "\n".join(lines) + "\n"
