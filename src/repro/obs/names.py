"""The stable metric-name catalog (the dashboard contract).

Every metric family the core tuner, resilience layer, and fleet emit is
declared here, once, with its type and label set.  Instrumented modules
build their collectors *from* these specs, so a renamed or relabeled
metric is a one-file change -- and the metrics-contract test asserts
that every catalog entry actually appears in the Prometheus export,
which is what keeps external dashboards from silently breaking.

A family is here only if a doc, a ``tools/`` gate or ``perf/layers.py``
reads it and a test asserts its value by name (``tests/obs/
test_contract.py`` checks both).  A number some result object already
returns -- ``ReorganizationResult``, ``QueryOutcome``, the scheduler's
counters, ``FleetReorganizationResult`` -- is read there, not copied
into a family.

Name conventions follow Prometheus: ``*_total`` for counters, bare
nouns for gauges, unit-suffixed names for histograms (``_seconds``,
``_cost``).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.obs.registry import COST_BUCKETS, LATENCY_BUCKETS, SECONDS_BUCKETS

if TYPE_CHECKING:
    from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry


@dataclasses.dataclass(frozen=True)
class MetricSpec:
    """Declaration of one stable metric family.

    Attributes:
        name: Prometheus-style family name.
        kind: ``"counter"``, ``"gauge"`` or ``"histogram"``.
        help: One-line description (the ``# HELP`` text).
        labelnames: Label keys every sample binds.
        buckets: Histogram bucket bounds (histograms only).
    """

    name: str
    kind: str
    help: str
    labelnames: Tuple[str, ...] = ()
    buckets: Optional[Tuple[float, ...]] = None

    def build(
        self, registry: MetricsRegistry
    ) -> Union[Counter, Gauge, Histogram]:
        """Create (or fetch) this family's collector on a registry."""
        if self.kind == "counter":
            return registry.counter(self.name, self.help, self.labelnames)
        if self.kind == "gauge":
            return registry.gauge(self.name, self.help, self.labelnames)
        if self.kind == "histogram":
            return registry.histogram(
                self.name,
                self.help,
                self.labelnames,
                buckets=self.buckets or SECONDS_BUCKETS,
            )
        raise ValueError(f"unknown metric kind {self.kind!r}")


def _catalog(*specs: MetricSpec) -> Dict[str, MetricSpec]:
    out: Dict[str, MetricSpec] = {}
    for spec in specs:
        if spec.name in out:
            raise ValueError(f"duplicate metric spec {spec.name!r}")
        out[spec.name] = spec
    return out


#: Families emitted by :class:`~repro.core.colt.ColtTuner`.
TUNER_METRICS = _catalog(
    MetricSpec("colt_queries_total", "counter", "Queries processed by the tuner."),
    MetricSpec("colt_epochs_total", "counter", "Epoch boundaries closed."),
    MetricSpec("colt_whatif_calls_total", "counter", "What-if optimizer calls issued."),
    MetricSpec("colt_whatif_overhead_cost_total", "counter", "Cost units charged for what-if calls."),
    MetricSpec("colt_execution_cost_total", "counter", "Execution cost of processed queries."),
    MetricSpec("colt_query_cost", "histogram", "Per-query execution cost.", buckets=COST_BUCKETS),
)

#: Families emitted by :class:`~repro.core.profiler.Profiler`.
PROFILER_METRICS = _catalog(
    MetricSpec("profiler_probes_total", "counter", "What-if probes attempted (including failures)."),
    MetricSpec("profiler_whatif_spent_total", "counter", "What-if budget units spent."),
    MetricSpec("profiler_clusters", "gauge", "Live query clusters."),
)

#: Families emitted by :class:`~repro.core.gaincache.GainCache`.
GAINCACHE_METRICS = _catalog(
    MetricSpec(
        "gaincache_hits_total",
        "counter",
        "What-if gains served from the cross-query gain cache.",
        labelnames=("kind",),
    ),
    MetricSpec("gaincache_misses_total", "counter", "Gain-cache lookups that fell through to a real what-if probe."),
)

#: Families emitted by the resilience layer (breaker transitions).
RESILIENCE_METRICS = _catalog(
    MetricSpec(
        "breaker_transitions_total",
        "counter",
        "Profiling circuit-breaker state transitions.",
        labelnames=("from_state", "to_state"),
    ),
)

#: Families emitted by :class:`~repro.fleet.coordinator.FleetCoordinator`.
FLEET_METRICS = _catalog(
    MetricSpec("fleet_queries_routed_total", "counter", "Queries routed, per serving replica.", labelnames=("replica",)),
)

#: Families emitted by :class:`~repro.bandit.tuner.BanditTuner`.
BANDIT_METRICS = _catalog(
    MetricSpec("bandit_queries_total", "counter", "Queries processed by the bandit tuner."),
    MetricSpec("bandit_reward_samples_total", "counter", "Reward observations folded into the linear model."),
    MetricSpec("bandit_safety_fallbacks_total", "counter", "Configuration changes reverted by the safety fallback."),
    MetricSpec("bandit_reward", "histogram", "Per-query reward (observed cost savings) per model update.", buckets=COST_BUCKETS),
)

#: Families emitted by :class:`~repro.backend.base.Backend` adapters.
BACKEND_METRICS = _catalog(
    MetricSpec(
        "backend_optimize_calls_total",
        "counter",
        "Pricing requests issued to the DBMS backend.",
        labelnames=("backend",),
    ),
)

#: Families emitted by the multiprocess fleet's workers
#: (:mod:`repro.fleet.workers`).
WORKER_METRICS = _catalog(
    MetricSpec(
        "worker_query_latency_seconds",
        "histogram",
        "Wall-clock per-query processing latency inside a fleet worker process.",
        buckets=LATENCY_BUCKETS,
    ),
)

#: Every stable family, by name -- the contract the export must honour.
CATALOG: Dict[str, MetricSpec] = {
    **TUNER_METRICS,
    **PROFILER_METRICS,
    **GAINCACHE_METRICS,
    **RESILIENCE_METRICS,
    **FLEET_METRICS,
    **BANDIT_METRICS,
    **BACKEND_METRICS,
    **WORKER_METRICS,
}
