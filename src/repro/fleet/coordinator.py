"""The fleet coordinator: routing, epoch-aligned reorganization, drains.

The coordinator owns N :class:`~repro.fleet.replica.TunerReplica`
instances and a :class:`~repro.fleet.router.Router`.  Per arriving
query it routes and processes; every ``fleet_epoch_length`` queries it
runs a *fleet reorganization*, the scale-out analogue of COLT's
per-epoch self-organization:

* replicas whose profiling breaker tripped OPEN are **drained** --
  removed from routing with their sticky assignments redistributed, so
  no arriving query is ever dropped;
* recovered replicas (breaker HALF_OPEN after cooldown, then CLOSED)
  are **restored** to the rotation;
* a configuration-divergence measure over the replicas' materialized
  sets is reported, making specialization observable.

Each boundary yields a :class:`FleetReorganizationResult`, the fleet's
ledger record mirroring the single-tuner
:class:`~repro.core.self_organizer.ReorganizationResult`.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union

from repro.core.config import ColtConfig
from repro.engine.catalog import Catalog
from repro.engines import engine_spec
from repro.fleet.replica import ReplicaHealth, TunerReplica
from repro.obs.export import build_snapshot
from repro.obs.names import (
    BANDIT_METRICS,
    FLEET_METRICS,
    PROFILER_METRICS,
    TUNER_METRICS,
    WORKER_METRICS,
)
from repro.obs.registry import MetricsRegistry, merge_snapshots
from repro.fleet.router import AffinityRouter, make_router
from repro.workload.phases import Workload

if TYPE_CHECKING:
    from repro.core.loop import QueryOutcome
    from repro.fleet.replica import ReplicaStats
    from repro.fleet.router import Router
    from repro.guardrails.advice import AdviceBook
    from repro.resilience.breaker import CircuitBreaker
    from repro.sql.ast import Query

CatalogFactory = Callable[[], Catalog]


@dataclasses.dataclass
class ReplicaStatus:
    """One replica's line in a fleet reorganization report.

    Attributes:
        replica_id: The replica.
        health: Health value (``"healthy"``/``"degraded"``/``"drained"``).
        breaker_state: The underlying breaker state.
        queries: Queries processed so far.
        materialized: Number of materialized indexes.
    """

    replica_id: int
    health: str
    breaker_state: str
    queries: int
    materialized: int


@dataclasses.dataclass
class FleetReorganizationResult:
    """Decisions taken at one fleet epoch boundary.

    Attributes:
        epoch: 0-based fleet epoch number.
        drained: Replicas newly drained at this boundary.
        restored: Replicas newly restored to the rotation.
        drained_total: All replicas excluded from routing after this
            boundary.
        moved_assignments: Sticky affinity keys redistributed away from
            drained replicas.
        rebalanced: Sticky affinity keys moved toward starved replicas
            (e.g. a just-restored replica that owns no assignments).
        divergence: Mean pairwise Jaccard *distance* between the
            replicas' materialized sets -- 0 when every replica holds
            the same indexes, 1 when all sets are disjoint.
        replicas: Per-replica status lines.
    """

    epoch: int
    drained: List[int]
    restored: List[int]
    drained_total: List[int]
    moved_assignments: int
    rebalanced: int
    divergence: float
    replicas: List[ReplicaStatus]


@dataclasses.dataclass
class FleetOutcome:
    """Ledger record for one query routed through the fleet.

    Attributes:
        index: 0-based position in the fleet's arrival stream.
        replica_id: The replica that served the query.
        outcome: The replica tuner's own ledger record.
        routing_overhead: Always 0.0: no routing policy spends probes.
            Kept for readers of the ledger (``perf/run.py``).
        reorganization: The fleet reorganization this query's arrival
            closed, if any.
    """

    index: int
    replica_id: int
    outcome: QueryOutcome
    routing_overhead: float = 0.0
    reorganization: Optional[FleetReorganizationResult] = None

    @property
    def total_cost(self) -> float:
        """The query's replica-side total cost."""
        return self.outcome.total_cost


@dataclasses.dataclass
class FleetRun:
    """Complete ledger of one fleet simulation.

    Attributes:
        outcomes: Per-query fleet records, in arrival order.
        reorganizations: Every fleet epoch boundary's decisions.
        replica_stats: Per-replica running totals at the end of the run.
        policy: The routing policy name.
    """

    outcomes: List[FleetOutcome]
    reorganizations: List[FleetReorganizationResult]
    replica_stats: List[ReplicaStats]
    policy: str

    @property
    def execution_cost(self) -> float:
        """Workload-wide execution cost (the figure-of-merit compared
        across routing policies)."""
        return sum(o.outcome.execution_cost for o in self.outcomes)

    @property
    def total_cost(self) -> float:
        """Execution plus all tuning overheads."""
        return sum(o.total_cost for o in self.outcomes)

    @property
    def queries_per_replica(self) -> List[int]:
        """How many queries each replica served."""
        return [s.queries for s in self.replica_stats]

    @property
    def failed_queries(self) -> int:
        """Queries recorded as failed (skip-mode error handling)."""
        return sum(s.failed for s in self.replica_stats)


class FleetCoordinator:
    """Runs a replicated tuning fleet behind one routing front door.

    Args:
        catalog_factory: Zero-argument callable producing a fresh,
            structurally identical catalog per replica (plus one for
            the router's key computation).
        n_replicas: Fleet size.
        config: Per-replica tuning parameters; ``storage_budget_pages``
            is each replica's *own* budget.
        policy: Routing policy name (see :func:`~repro.fleet.router.
            make_router`).
        fleet_epoch_length: Queries between fleet reorganizations.
        breakers: Optional per-replica circuit breakers (tests inject
            tight thresholds).
        registry: Fleet-level metrics registry; defaults to a fresh
            one.  Each replica's tuner owns a registry of its own, so
            :meth:`metrics_snapshot` can merge them under a
            ``replica`` label.
        advice: Optional DBA advice applied to every replica's tuner.
        engine: Name of the tuning engine every replica runs (a key of
            :data:`repro.engines.ENGINES`); a ``ColtConfig`` is still
            what parameterizes the fleet (other engines derive a
            matched configuration from it through the table's adapter).
        workers: When positive, replicas run in that many worker
            *processes* instead of in-process: construction returns a
            :class:`~repro.fleet.workers.WorkerFleetCoordinator` (same
            run/reorganize surface, N cores, bit-identical decisions --
            see ``repro/fleet/workers.py`` for the supported subset of
            fleet features).  0 (the default) keeps everything in this
            process.
    """

    def __new__(cls, *args, workers: int = 0, **kwargs):
        # `FleetCoordinator(..., workers=N)` is the documented front
        # door for the multiprocess fleet; dispatch to the worker
        # subclass here so callers never import it directly.  Plain
        # construction (and `adopt`'s bare `cls.__new__(cls)`) is
        # untouched, as is any explicit subclass.
        if workers and cls is FleetCoordinator:
            from repro.fleet.workers import WorkerFleetCoordinator

            return super().__new__(WorkerFleetCoordinator)
        return super().__new__(cls)

    def __init__(
        self,
        catalog_factory: CatalogFactory,
        n_replicas: int = 3,
        config: Optional[ColtConfig] = None,
        policy: str = "affinity",
        fleet_epoch_length: int = 50,
        breakers: Optional[Sequence[Optional[CircuitBreaker]]] = None,
        registry: Optional[MetricsRegistry] = None,
        advice: Optional[AdviceBook] = None,
        engine: str = "colt",
        workers: int = 0,
    ) -> None:
        if workers:
            # Reaching here with workers > 0 means __new__ did not
            # dispatch (an explicit subclass): fail loudly rather than
            # silently running single-process.
            raise ValueError(
                "workers > 0 requires the multiprocess coordinator; "
                "construct FleetCoordinator(..., workers=N) directly or "
                "use repro.fleet.workers.WorkerFleetCoordinator"
            )
        if n_replicas < 1:
            raise ValueError("n_replicas must be positive")
        if fleet_epoch_length < 1:
            raise ValueError("fleet_epoch_length must be positive")
        engine_spec(engine)  # ValueError for a name the table lacks
        registry = registry if registry is not None else MetricsRegistry()
        config = config or ColtConfig()
        replicas: List[TunerReplica] = []
        for i in range(n_replicas):
            breaker = breakers[i] if breakers else None
            replicas.append(
                TunerReplica(
                    i,
                    catalog_factory(),
                    config,
                    breaker=breaker,
                    engine=engine,
                    advice=advice,
                )
            )
        routing_catalog = catalog_factory()
        router = make_router(policy, n_replicas, routing_catalog)
        self._wire(
            engine, config, replicas, routing_catalog, router,
            fleet_epoch_length, registry,
        )

    def _wire(
        self,
        engine: str,
        config: ColtConfig,
        replicas: Sequence,
        routing_catalog: Catalog,
        router: Router,
        fleet_epoch_length: int,
        registry: MetricsRegistry,
    ) -> None:
        """Install the coordinator's fields around existing replicas.

        The one place the field set is spelled out: fresh construction,
        :meth:`adopt` and the multiprocess coordinator all end here.
        """
        self.engine = engine
        self.config = config
        self.fleet_epoch_length = fleet_epoch_length
        self.registry = registry
        self.replicas = list(replicas)
        self._routing_catalog = routing_catalog
        self.router = router
        self.queries_routed = 0
        self.reorganizations: List[FleetReorganizationResult] = []
        self._init_observability()

    # ------------------------------------------------------------------
    @classmethod
    def adopt(
        cls,
        replicas: Sequence[TunerReplica],
        routing_catalog: Catalog,
        policy: str = "affinity",
        fleet_epoch_length: int = 50,
        queries_routed: int = 0,
    ) -> "FleetCoordinator":
        """Build a coordinator around pre-existing replicas.

        Used when restoring a fleet from snapshots: the replicas (and
        their tuners) already exist, so no catalogs are constructed.
        ``queries_routed`` resumes the fleet-epoch clock; the router
        starts fresh.
        """
        coordinator = cls.__new__(cls)
        tuner = replicas[0].tuner
        router = make_router(policy, len(replicas), routing_catalog)
        coordinator._wire(
            replicas[0].engine, tuner.config, replicas, routing_catalog, router,
            fleet_epoch_length, MetricsRegistry(),
        )
        coordinator.queries_routed = queries_routed
        return coordinator

    # ------------------------------------------------------------------
    def _init_observability(self) -> None:
        """Build the fleet-level collectors."""
        # Counted on every arrival: bound to each replica's sample here
        # (replica ids are positions in ``self.replicas``).
        routed = FLEET_METRICS["fleet_queries_routed_total"].build(self.registry)
        self._count_routed = [
            routed.labels(replica=r.replica_id).inc for r in self.replicas
        ]
        # The engine-specific families (COLT's and the bandit's) and the
        # workers' latency family are registered fleet-level too: a
        # fleet may mix engines, run single-process or with workers, but
        # the export contract (every CATALOG family present) stays
        # configuration-agnostic either way.
        for catalog in (
            TUNER_METRICS,
            PROFILER_METRICS,
            BANDIT_METRICS,
            WORKER_METRICS,
        ):
            for spec in catalog.values():
                spec.build(self.registry)

    # ------------------------------------------------------------------
    @property
    def policy(self) -> str:
        """The routing policy name."""
        return self.router.name

    @property
    def metrics(self) -> MetricsRegistry:
        """The fleet-level metrics registry (replicas have their own)."""
        return self.registry

    def metrics_snapshot(self) -> Dict:
        """Merged snapshot: fleet families plus per-replica families.

        Replica samples gain a ``replica`` label; overhead rows gain a
        ``replica`` key.
        """
        parts = [(self.registry.snapshot(), {})]
        overhead: List[Dict] = []
        for r in self.replicas:
            snapshot = r.metrics_snapshot()
            if snapshot is None:
                # A crashed worker contributes nothing beyond what the
                # fleet-level registry already recorded about it.
                continue
            parts.append((snapshot["metrics"], {"replica": str(r.replica_id)}))
            for row in snapshot["overhead"]:
                row["replica"] = r.replica_id
                overhead.append(row)
        return build_snapshot(merge_snapshots(parts), overhead=overhead)

    def replica_snapshots(self) -> List[Dict]:
        """Per-replica durable snapshots, by replica id.

        The same :func:`repro.persist.snapshot_any` payloads whether the
        replicas live in this process or in workers, so one manifest
        format serves both and a worker-fleet snapshot restores into a
        serial coordinator.

        Raises:
            WorkerCrash: when a replica's worker is gone -- a partial
                fleet snapshot would restore into a silently smaller
                fleet.
        """
        return [r.snapshot() for r in self.replicas]

    def process_query(
        self,
        query: Query,
        client_id: Optional[int] = None,
        on_error: str = "raise",
    ) -> FleetOutcome:
        """Route and process one arriving query.

        Args:
            query: The bound query.
            client_id: Stable submitting-client id, when the workload
                carries one (used by client-affinity routing).
            on_error: ``"raise"`` propagates replica failures;
                ``"skip"`` records them as failed outcomes and keeps
                the fleet serving.

        Returns:
            The fleet ledger record; when this arrival closes a fleet
            epoch it carries the boundary's reorganization report.
        """
        replica_id = self.router.route(query, client_id)
        replica = self.replicas[replica_id]
        outcome = replica.process(query, on_error=on_error)
        # Drained replicas see no queries; advance their breaker clocks
        # so cooldown (measured in arrivals, as everywhere) elapses.
        for drained_id in self.router.drained:
            if drained_id != replica_id:
                self.replicas[drained_id].idle_tick()

        self.queries_routed += 1
        self._count_routed[replica_id]()
        reorg: Optional[FleetReorganizationResult] = None
        if self.queries_routed % self.fleet_epoch_length == 0:
            reorg = self.reorganize()
        return FleetOutcome(
            index=self.queries_routed - 1,
            replica_id=replica_id,
            outcome=outcome,
            reorganization=reorg,
        )

    def run(
        self,
        workload: Union[Workload, Sequence[Query]],
        client_ids: Optional[Sequence[Optional[int]]] = None,
        on_error: str = "raise",
    ) -> FleetRun:
        """Process a whole workload, returning the complete fleet ledger.

        Args:
            workload: A :class:`~repro.workload.phases.Workload` (its
                ``client_ids`` tags are used automatically) or a bare
                query sequence.
            client_ids: Explicit per-query client tags overriding the
                workload's own.
            on_error: Forwarded to :meth:`process_query`.
        """
        if isinstance(workload, Workload):
            queries: Sequence[Query] = workload.queries
            if client_ids is None:
                client_ids = workload.client_ids
        else:
            queries = workload
        return FleetRun(
            outcomes=self._serve(queries, client_ids, on_error),
            reorganizations=list(self.reorganizations),
            replica_stats=[r.stats for r in self.replicas],
            policy=self.policy,
        )

    def _serve(self, queries, client_ids, on_error: str) -> List[FleetOutcome]:
        """Process the arrivals of one :meth:`run`, in order."""
        return [
            self.process_query(
                query,
                client_id=client_ids[i] if client_ids is not None else None,
                on_error=on_error,
            )
            for i, query in enumerate(queries)
        ]

    # ------------------------------------------------------------------
    def reorganize(self) -> FleetReorganizationResult:
        """Run one fleet reorganization (drain/restore/rebalance).

        Called automatically at fleet epoch boundaries; callable
        directly by tests and by operators reacting to an incident.
        """
        previously = set(self.router.drained)
        unhealthy = {
            r.replica_id
            for r in self.replicas
            if r.health is ReplicaHealth.DRAINED
        }
        drained = sorted(unhealthy - previously)
        restored = sorted(previously - unhealthy)
        self.router.set_drained(sorted(unhealthy))

        moved = 0
        rebalanced = 0
        if isinstance(self.router, AffinityRouter):
            if drained:
                moved = self.router.reassign_from(drained)
            rebalanced = self.router.rebalance()
        self.router.roll_epoch()

        divergence = self.configuration_divergence()
        result = FleetReorganizationResult(
            epoch=len(self.reorganizations),
            drained=drained,
            restored=restored,
            drained_total=sorted(unhealthy),
            moved_assignments=moved,
            rebalanced=rebalanced,
            divergence=divergence,
            replicas=[
                ReplicaStatus(
                    replica_id=r.replica_id,
                    health=r.health.value,
                    breaker_state=r.breaker.state.value,
                    queries=r.stats.queries,
                    materialized=len(r.materialized_names),
                )
                for r in self.replicas
            ],
        )
        self.reorganizations.append(result)
        return result

    # ------------------------------------------------------------------
    def configuration_divergence(self) -> float:
        """Mean pairwise Jaccard distance between materialized sets.

        0.0 means every replica materialized the same indexes (no
        specialization -- what round-robin converges to); values toward
        1.0 mean the replicas partitioned the index space.
        """
        sets = [frozenset(r.materialized_names) for r in self.replicas]
        pairs = [
            (a, b) for i, a in enumerate(sets) for b in sets[i + 1 :]
        ]
        if not pairs:
            return 0.0
        distances = []
        for a, b in pairs:
            union = a | b
            if not union:
                distances.append(0.0)
            else:
                distances.append(1.0 - len(a & b) / len(union))
        return sum(distances) / len(distances)
