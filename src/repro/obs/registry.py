"""Dependency-free metrics registry: counters, gauges, histograms.

The registry is deliberately tiny and allocation-light so the tuner's
hot path (every arriving query) can afford it: a family is created once
at instrumentation time, ``family.labels(...)`` binds one of its samples
once, and each update of the bound child is a dict lookup plus a float
add.  A total its owner already keeps is not counted twice: the family
reads it when it is read (:meth:`Metric.set_function`).

All three collector types support Prometheus-style labels, declared at
registration time (``labelnames``) and bound with ``labels(replica=0)``;
``inc(1, replica=0)`` on the family is the same update through the same
child, and a registered family without labels *is* its one child (its
``inc`` / ``set`` / ``observe`` are the child's).  Snapshots are plain
JSON-compatible dicts; the Prometheus text rendering lives in
:mod:`repro.obs.export`.

Design choices mirroring ``prometheus_client`` (the idiom, not the
code): registration is idempotent for an identical (name, kind,
labelnames) triple and an error for a conflicting one, so two
subsystems can safely share a registry; samples are ordered
deterministically (registration order, then sorted label values) so
exports diff cleanly across runs.
"""

from __future__ import annotations

import bisect
import types
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class MetricError(ValueError):
    """Raised for invalid metric registration or label usage."""


#: Default histogram buckets for wall-clock durations, in seconds.
SECONDS_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
)

#: Fine-grained buckets for per-query serving latencies, in seconds.
#: The serving hot path prices a query in well under a millisecond, so
#: the ``SECONDS_BUCKETS`` floor (0.5 ms) would collapse every
#: observation into one bucket and p50/p95/p99 would be meaningless;
#: these extend three decades lower at the same ~2.5x spacing.
LATENCY_BUCKETS = (
    0.000_01,
    0.000_025,
    0.000_05,
    0.000_1,
    0.000_25,
    0.000_5,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
)

#: Default histogram buckets for optimizer cost units (wide, log-spaced).
COST_BUCKETS = (
    1.0,
    10.0,
    100.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
)


def _validate_name(name: str) -> None:
    if not name or not all(c.isalnum() or c == "_" for c in name):
        raise MetricError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise MetricError(f"metric name {name!r} must not start with a digit")


class Metric:
    """Base collector: a named family of labeled samples.

    Args:
        name: Metric family name (``[a-zA-Z_][a-zA-Z0-9_]*``).
        help: One-line description rendered as ``# HELP``.
        labelnames: Label keys every sample of this family must bind.
    """

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
    ) -> None:
        _validate_name(name)
        for label in labelnames:
            _validate_name(label)
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._sorted_labelnames = tuple(sorted(self.labelnames))
        self._samples: Dict[Tuple[str, ...], float] = {}
        self._children: Dict[Tuple[str, ...], object] = {}
        self._readers: Dict[Tuple[str, ...], Callable[[], Optional[float]]] = {}

    # ------------------------------------------------------------------
    def _labelvalues(self, labels: Dict[str, object]) -> Tuple[str, ...]:
        if not labels and not self.labelnames:
            return ()
        if tuple(sorted(labels)) != self._sorted_labelnames:
            raise MetricError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[k]) for k in self.labelnames)

    def labels(self, **labels: object):
        """The child bound to one label binding's sample.

        Bind once at instrumentation time, update the child on the hot
        path (``inc`` / ``set`` / ``dec`` / ``observe`` as the family
        has them, without label arguments).  Updates through the child
        and through the family land on the same sample.

        Raises:
            MetricError: for wrong or missing label names.
        """
        key = self._labelvalues(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._bind(key)
        return child

    def set_function(self, read: Callable[[], Optional[float]], **labels: object) -> None:
        """Read one label binding's value from ``read()`` whenever the
        family is read, for a total its owner already keeps.  ``read``
        returns None while the binding has no sample yet."""
        self._readers[self._labelvalues(labels)] = read

    def _read(self) -> Dict[Tuple[str, ...], float]:
        for key, read in self._readers.items():
            value = read()
            if value is not None:
                self._samples[key] = float(value)
        return self._samples

    def value(self, **labels: object) -> float:
        """The current value for one label binding (0.0 if never set)."""
        return self._read().get(self._labelvalues(labels), 0.0)

    def samples(self) -> List[Dict]:
        """JSON-compatible samples, deterministically ordered."""
        return [
            {"labels": dict(zip(self.labelnames, key)), "value": value}
            for key, value in sorted(self._read().items())
        ]

    def snapshot(self) -> Dict:
        """JSON-compatible description of this metric family."""
        return {
            "name": self.name,
            "type": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "samples": self.samples(),
        }


class Counter(Metric):
    """A monotonically increasing value (events, spent cost units)."""

    kind = "counter"

    def _bind(self, key: Tuple[str, ...]):
        name, samples = self.name, self._samples  # a sample exists from its first update

        def inc(amount: float = 1.0) -> None:
            if amount < 0:
                raise MetricError(f"counter {name} cannot decrease")
            samples[key] = samples.get(key, 0.0) + amount

        return types.SimpleNamespace(inc=inc)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (must be >= 0) to one label binding's value."""
        self.labels(**labels).inc(amount)


class Gauge(Metric):
    """A value that can go up and down (set sizes, current budgets)."""

    kind = "gauge"

    def _bind(self, key: Tuple[str, ...]):
        samples = self._samples

        def set_to(value: float) -> None:
            samples[key] = float(value)

        def inc(amount: float = 1.0) -> None:
            samples[key] = samples.get(key, 0.0) + amount

        return types.SimpleNamespace(set=set_to, inc=inc, dec=lambda amount=1.0: inc(-amount))

    def set(self, value: float, **labels: object) -> None:
        """Set one label binding's value."""
        self.labels(**labels).set(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (may be negative) to one label binding's value."""
        self.labels(**labels).inc(amount)

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        """Subtract ``amount`` from one label binding's value."""
        self.labels(**labels).inc(-amount)


class Histogram(Metric):
    """Cumulative-bucket histogram (Prometheus semantics).

    Args:
        name / help / labelnames: As for :class:`Metric`.
        buckets: Ascending upper bounds; a ``+Inf`` bucket is implicit.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = SECONDS_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise MetricError(f"histogram {name} buckets must be ascending")
        if not bounds:
            raise MetricError(f"histogram {name} needs at least one bucket")
        self.buckets = bounds
        # key -> [count, sum, per-bucket counts (non-cumulative)]; a bound
        # series nothing was observed on yet is not a sample.
        self._series: Dict[Tuple[str, ...], List] = {}

    def _bind(self, key: Tuple[str, ...]):
        buckets, bisect_left = self.buckets, bisect.bisect_left
        series = self._series[key] = [0, 0.0, [0] * (len(buckets) + 1)]

        def observe(value: float) -> None:
            series[0] += 1
            series[1] += value
            series[2][bisect_left(buckets, value)] += 1

        return types.SimpleNamespace(observe=observe)

    def observe(self, value: float, **labels: object) -> None:
        """Record one observation."""
        self.labels(**labels).observe(value)

    def count(self, **labels: object) -> int:
        """Number of observations for one label binding."""
        series = self._series.get(self._labelvalues(labels))
        return series[0] if series else 0

    def sum(self, **labels: object) -> float:
        """Sum of observations for one label binding."""
        series = self._series.get(self._labelvalues(labels))
        return series[1] if series else 0.0

    def samples(self) -> List[Dict]:
        """Per-binding count/sum plus cumulative bucket counts."""
        out = []
        for key, (count, total, raw) in sorted(self._series.items()):
            if not count:
                continue
            cumulative = {}
            acc = 0
            for bound, n in zip(self.buckets, raw):
                acc += n
                cumulative[repr(bound)] = acc
            cumulative["+Inf"] = count
            out.append(
                {
                    "labels": dict(zip(self.labelnames, key)),
                    "count": count,
                    "sum": total,
                    "buckets": cumulative,
                }
            )
        return out


class MetricsRegistry:
    """A collection of metrics owned by one subsystem instance.

    Registries are instance-scoped on purpose (no process-global
    default): each tuner, scheduler, and fleet coordinator owns or
    shares one explicitly, so tests and replicas never interfere.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # ------------------------------------------------------------------
    def _register(self, metric: Metric) -> Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if (
                existing.kind != metric.kind
                or existing.labelnames != metric.labelnames
            ):
                raise MetricError(
                    f"metric {metric.name!r} already registered as "
                    f"{existing.kind}{existing.labelnames}"
                )
            return existing
        self._metrics[metric.name] = metric
        if not metric.labelnames:
            # One sample, so the family is its own bound child: its update
            # methods are the child's, and every site that holds it is bound.
            vars(metric).update(vars(metric.labels()))
        return metric

    def counter(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        """Register (or fetch) a counter family."""
        metric = self._register(Counter(name, help, labelnames))
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self, name: str, help: str, labelnames: Sequence[str] = ()
    ) -> Gauge:
        """Register (or fetch) a gauge family."""
        metric = self._register(Gauge(name, help, labelnames))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = SECONDS_BUCKETS,
    ) -> Histogram:
        """Register (or fetch) a histogram family."""
        metric = self._register(Histogram(name, help, labelnames, buckets))
        assert isinstance(metric, Histogram)
        return metric

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        """The registered metric with this name, if any."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """Registered family names in registration order."""
        return list(self._metrics)

    def snapshot(self) -> List[Dict]:
        """JSON-compatible snapshot of every family, registration order."""
        return [m.snapshot() for m in self._metrics.values()]


def merge_snapshots(
    parts: Iterable[Tuple[List[Dict], Dict[str, str]]],
) -> List[Dict]:
    """Merge per-component metric snapshots into one family list.

    Args:
        parts: ``(snapshot, extra_labels)`` pairs; every sample of a
            snapshot gains the extra labels (e.g. ``{"replica": "0"}``)
            before merging.  Families with the same name are unioned.

    Returns:
        One combined snapshot list, suitable for the exporters.

    Raises:
        MetricError: if two parts register the same family name with
            different types.
    """
    merged: Dict[str, Dict] = {}
    for snapshot, extra in parts:
        extra = {k: str(v) for k, v in extra.items()}
        for family in snapshot:
            target = merged.get(family["name"])
            if target is None:
                target = {
                    "name": family["name"],
                    "type": family["type"],
                    "help": family["help"],
                    "labelnames": sorted(
                        set(family["labelnames"]) | set(extra)
                    ),
                    "samples": [],
                }
                merged[family["name"]] = target
            elif target["type"] != family["type"]:
                raise MetricError(
                    f"conflicting types for {family['name']!r}: "
                    f"{target['type']} vs {family['type']}"
                )
            else:
                target["labelnames"] = sorted(
                    set(target["labelnames"])
                    | set(family["labelnames"])
                    | set(extra)
                )
            for sample in family["samples"]:
                copied = dict(sample)
                copied["labels"] = {**sample["labels"], **extra}
                target["samples"].append(copied)
    return list(merged.values())
