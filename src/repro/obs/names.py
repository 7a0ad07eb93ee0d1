"""The stable metric-name catalog (the dashboard contract).

Every metric family the core tuner, resilience layer, and fleet emit is
declared here, once, with its type and label set.  Instrumented modules
build their collectors *from* these specs, so a renamed or relabeled
metric is a one-file change -- and the metrics-contract test asserts
that every catalog entry actually appears in the Prometheus export,
which is what keeps external dashboards from silently breaking.

Name conventions follow Prometheus: ``*_total`` for counters, bare
nouns for gauges, unit-suffixed names for histograms (``_seconds``,
``_cost``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple, Union

from repro.obs.registry import (
    COST_BUCKETS,
    LATENCY_BUCKETS,
    SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


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
    MetricSpec("colt_query_failures_total", "counter", "Queries recorded as failed in skip mode."),
    MetricSpec("colt_epochs_total", "counter", "Epoch boundaries closed."),
    MetricSpec("colt_whatif_calls_total", "counter", "What-if optimizer calls issued."),
    MetricSpec("colt_whatif_overhead_cost_total", "counter", "Cost units charged for what-if calls."),
    MetricSpec("colt_execution_cost_total", "counter", "Execution cost of processed queries."),
    MetricSpec("colt_build_cost_total", "counter", "Index build cost charged at epoch boundaries."),
    MetricSpec("colt_hot_churn_total", "counter", "Indexes entering or leaving the hot set at boundaries."),
    MetricSpec("colt_insert_rows_total", "counter", "Rows applied through process_insert."),
    MetricSpec("colt_query_cost", "histogram", "Per-query execution cost.", buckets=COST_BUCKETS),
    MetricSpec("colt_epoch_close_seconds", "histogram", "Wall-clock time of epoch close (reorganization + builds).", buckets=SECONDS_BUCKETS),
    MetricSpec("colt_knapsack_seconds", "histogram", "Wall-clock time of each knapsack solve.", buckets=SECONDS_BUCKETS),
    MetricSpec("colt_materialized_indexes", "gauge", "Current size of the materialized set M."),
    MetricSpec("colt_hot_indexes", "gauge", "Current size of the hot set H."),
    MetricSpec("colt_whatif_budget", "gauge", "#WI_lim granted for the current epoch."),
    MetricSpec("colt_improvement_ratio", "gauge", "Latest re-budgeting ratio r."),
)

#: Families emitted by :class:`~repro.core.profiler.Profiler`.
PROFILER_METRICS = _catalog(
    MetricSpec("profiler_probes_total", "counter", "What-if probes attempted (including failures)."),
    MetricSpec("profiler_probe_failures_total", "counter", "What-if probes that raised."),
    MetricSpec("profiler_whatif_spent_total", "counter", "What-if budget units spent."),
    MetricSpec("profiler_degraded_queries_total", "counter", "Queries profiled crude-only because the breaker cut the budget."),
    MetricSpec("profiler_clusters", "gauge", "Live query clusters."),
    MetricSpec("profiler_ci_width", "histogram", "Width of (index, cluster) gain confidence intervals after each measurement.", buckets=COST_BUCKETS),
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
    MetricSpec("gaincache_stores_total", "counter", "Probe results stored into the gain cache."),
    MetricSpec(
        "gaincache_invalidations_total",
        "counter",
        "Gain-cache entries invalidated.",
        labelnames=("reason",),
    ),
    MetricSpec("gaincache_entries", "gauge", "Entries currently held by the gain cache."),
)

#: Families emitted by :class:`~repro.core.scheduler.Scheduler`.
SCHEDULER_METRICS = _catalog(
    MetricSpec("scheduler_builds_total", "counter", "Index builds completed."),
    MetricSpec("scheduler_build_failures_total", "counter", "Index build attempts that failed."),
    MetricSpec("scheduler_build_cost_total", "counter", "Cost units charged for completed builds."),
    MetricSpec("scheduler_retry_attempts_total", "counter", "Backed-off build retries attempted at boundaries."),
    MetricSpec("scheduler_recovered_builds_total", "counter", "Failed builds recovered by a retry."),
    MetricSpec("scheduler_abandoned_builds_total", "counter", "Failed builds whose retry policy was exhausted."),
    MetricSpec("scheduler_retry_queue_depth", "gauge", "Failed builds currently awaiting retry."),
    MetricSpec("scheduler_pending_builds", "gauge", "Builds queued under the idle-time policy."),
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
    MetricSpec("fleet_routing_probes_total", "counter", "What-if probes spent on routing decisions."),
    MetricSpec("fleet_routing_overhead_cost_total", "counter", "Cost units charged for routing probes."),
    MetricSpec("fleet_reorganizations_total", "counter", "Fleet epoch boundaries closed."),
    MetricSpec("fleet_drain_events_total", "counter", "Replicas newly drained at boundaries."),
    MetricSpec("fleet_restore_events_total", "counter", "Replicas newly restored at boundaries."),
    MetricSpec("fleet_moved_assignments_total", "counter", "Affinity keys redistributed away from drained replicas."),
    MetricSpec("fleet_rebalanced_keys_total", "counter", "Affinity keys moved toward starved replicas."),
    MetricSpec("fleet_probe_budget", "gauge", "Cost router probe budget granted for the current fleet epoch."),
    MetricSpec("fleet_config_divergence", "gauge", "Mean pairwise Jaccard distance between replica materialized sets."),
    MetricSpec("fleet_replica_health", "gauge", "Replica health (0 healthy, 1 degraded, 2 drained).", labelnames=("replica",)),
    MetricSpec("fleet_rollouts_started_total", "counter", "Canary rollouts started for newly recommended indexes."),
    MetricSpec("fleet_rollouts_promoted_total", "counter", "Canary rollouts promoted fleet-wide after verification."),
    MetricSpec("fleet_rollouts_rolled_back_total", "counter", "Canary rollouts rolled back after a failed verification."),
    MetricSpec("fleet_canary_reassignments_total", "counter", "Canary duties reassigned after the canary replica drained."),
    MetricSpec("fleet_active_canaries", "gauge", "Rollouts currently in the canary stage."),
)

#: Families emitted by :class:`~repro.bandit.tuner.BanditTuner`.
BANDIT_METRICS = _catalog(
    MetricSpec("bandit_queries_total", "counter", "Queries processed by the bandit tuner."),
    MetricSpec("bandit_query_failures_total", "counter", "Queries recorded as failed in skip mode."),
    MetricSpec("bandit_epochs_total", "counter", "Bandit decision rounds closed."),
    MetricSpec("bandit_reward_samples_total", "counter", "Reward observations folded into the linear model."),
    MetricSpec("bandit_observe_probes_total", "counter", "Counterfactual reward probes issued (one optimizer call each)."),
    MetricSpec("bandit_observe_overhead_cost_total", "counter", "Cost units charged for reward probes and shadow executions."),
    MetricSpec("bandit_safety_fallbacks_total", "counter", "Configuration changes reverted by the safety fallback."),
    MetricSpec("bandit_forced_exploration_epochs_total", "counter", "Decision rounds selected without build-cost hysteresis."),
    MetricSpec("bandit_arms", "gauge", "Arms in the pool at the latest decision round."),
    MetricSpec("bandit_materialized_indexes", "gauge", "Current size of the bandit's materialized set."),
    MetricSpec("bandit_confidence_width", "histogram", "Confidence width of arms scored at decision rounds.", buckets=COST_BUCKETS),
    MetricSpec("bandit_reward", "histogram", "Per-query reward (observed cost savings) per model update.", buckets=COST_BUCKETS),
)

#: Families emitted by :class:`~repro.guardrails.manager.GuardrailManager`.
GUARDRAIL_METRICS = _catalog(
    MetricSpec("guardrail_verifications_total", "counter", "Verification observations recorded against materialized indexes."),
    MetricSpec("guardrail_verification_overhead_cost_total", "counter", "Cost units charged for verification probes and shadow executions."),
    MetricSpec(
        "guardrail_verdicts_total",
        "counter",
        "Verification verdicts issued.",
        labelnames=("verdict",),
    ),
    MetricSpec("guardrail_quarantines_total", "counter", "Indexes admitted (or re-admitted) to quarantine."),
    MetricSpec("guardrail_releases_total", "counter", "Indexes released from quarantine."),
    MetricSpec("guardrail_quarantined_indexes", "gauge", "Indexes currently quarantined or on parole."),
    MetricSpec("guardrail_pinned_indexes", "gauge", "Indexes pinned by DBA advice."),
    MetricSpec("guardrail_banned_indexes", "gauge", "Indexes hard-banned right now (advice bans, quarantine blocks, rollout bans)."),
    MetricSpec(
        "guardrail_observed_predicted_ratio",
        "histogram",
        "Observed/predicted savings ratio at verdict time.",
        buckets=(0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0),
    ),
)

#: Families emitted by :class:`~repro.backend.base.Backend` adapters.
BACKEND_METRICS = _catalog(
    MetricSpec(
        "backend_optimize_calls_total",
        "counter",
        "Pricing requests issued to the DBMS backend.",
        labelnames=("backend",),
    ),
    MetricSpec(
        "backend_trace_misses_total",
        "counter",
        "Trace-replay lookups that missed the recorded cost trace.",
    ),
)

#: Families emitted by the throughput serving path: the replay driver
#: (:mod:`repro.bench.replay`) and the multiprocess fleet
#: (:mod:`repro.fleet.workers`).
REPLAY_METRICS = _catalog(
    MetricSpec(
        "replay_queries_total",
        "counter",
        "Queries replayed through the throughput driver.",
    ),
    MetricSpec(
        "replay_query_latency_seconds",
        "histogram",
        "Wall-clock per-query processing latency during replay.",
        buckets=LATENCY_BUCKETS,
    ),
    MetricSpec(
        "replay_worker_crashes_total",
        "counter",
        "Worker processes lost mid-epoch by the multiprocess fleet.",
    ),
    MetricSpec(
        "replay_workers",
        "gauge",
        "Worker processes currently attached to the fleet coordinator.",
    ),
)

#: Families emitted by the fleet co-tuning loop
#: (:class:`~repro.fleet.cotune.CotuneController`).
COTUNE_METRICS = _catalog(
    MetricSpec(
        "cotune_signatures",
        "gauge",
        "Partition signatures currently tracked by the co-tuning loop.",
    ),
    MetricSpec(
        "cotune_partitions",
        "gauge",
        "Active replicas owning at least one partition signature.",
    ),
    MetricSpec(
        "cotune_migrations_total",
        "counter",
        "Partition signatures moved between replicas (probe-refined "
        "plus drain-forced).",
    ),
    MetricSpec(
        "cotune_probes_total",
        "counter",
        "What-if probes spent on partition refinement at boundaries.",
    ),
    MetricSpec(
        "cotune_probe_overhead_cost_total",
        "counter",
        "Cost units charged for co-tuning refinement probes.",
    ),
    MetricSpec(
        "cotune_fleet_cost_delta",
        "gauge",
        "Relative fleet cost-per-query change at the last boundary "
        "(negative is improvement).",
    ),
    MetricSpec(
        "cotune_divergence_objective",
        "gauge",
        "Configuration divergence treated as the co-tuning steering "
        "signal (mean pairwise Jaccard distance).",
    ),
    MetricSpec(
        "cotune_converged",
        "gauge",
        "Whether partition refinement is frozen (1) or active (0).",
    ),
)

#: Every stable family, by name -- the contract the export must honour.
CATALOG: Dict[str, MetricSpec] = {
    **TUNER_METRICS,
    **PROFILER_METRICS,
    **GAINCACHE_METRICS,
    **SCHEDULER_METRICS,
    **RESILIENCE_METRICS,
    **FLEET_METRICS,
    **BANDIT_METRICS,
    **GUARDRAIL_METRICS,
    **BACKEND_METRICS,
    **REPLAY_METRICS,
    **COTUNE_METRICS,
}
