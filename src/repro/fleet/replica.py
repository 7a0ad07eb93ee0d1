"""One fleet member: a tuning engine wrapped with identity and health.

A :class:`TunerReplica` owns its catalog and tuner -- whichever
:class:`~repro.core.loop.TuningLoop` engine the engine table
(:mod:`repro.engines`) lists under the replica's ``engine`` name
(replicas must evolve independent materialized sets), carries a
per-replica storage budget, and derives a fleet-facing health state
from the tuner's existing profiling circuit breaker
(``repro.resilience``): a breaker that trips OPEN marks the replica
DRAINED so the router stops sending it traffic, HALF_OPEN maps to
DEGRADED (traffic allowed, profiling trickles), and CLOSED is HEALTHY.

The replica's trace (the newest ``WINDOW_EPOCHS`` epochs of its tuner's
epoch log, plus exact totals) lets fleet benchmarks dump
machine-readable traces of every replica's decisions.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.engines import engine_spec
from repro.persist import snapshot_any
from repro.resilience.breaker import BreakerState

if TYPE_CHECKING:
    from repro.bench.tracing import TunerTrace
    from repro.core.config import ColtConfig
    from repro.core.loop import QueryOutcome, TuningLoop
    from repro.engine.catalog import Catalog
    from repro.resilience.breaker import CircuitBreaker
    from repro.sql.ast import Query


class ReplicaHealth(enum.Enum):
    """Fleet-facing health state, derived from the profiling breaker."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DRAINED = "drained"

    @classmethod
    def from_breaker(cls, state: BreakerState) -> "ReplicaHealth":
        """Map a breaker state onto the fleet's health vocabulary."""
        if state is BreakerState.OPEN:
            return cls.DRAINED
        if state is BreakerState.HALF_OPEN:
            return cls.DEGRADED
        return cls.HEALTHY


@dataclasses.dataclass
class ReplicaStats:
    """Running totals for one replica's slice of the fleet stream.

    Attributes:
        queries: Queries processed by this replica.
        execution_cost: Sum of execution costs of those queries.
        total_cost: Execution plus tuning overheads (what-if, builds).
        whatif_calls: Ledger what-if calls spent on those queries.
        failed: Queries that errored and were recorded in skip mode.
    """

    queries: int = 0
    execution_cost: float = 0.0
    total_cost: float = 0.0
    whatif_calls: int = 0
    failed: int = 0


class TunerReplica:
    """One independently tuned replica of the database.

    Args:
        replica_id: Dense fleet-wide id (0-based).
        catalog: This replica's private catalog.
        config: Tuning parameters; ``storage_budget_pages`` is the
            *per-replica* budget.
        breaker: Optional pre-built circuit breaker (tests inject one
            with tight thresholds); defaults to the tuner's standard.
        tuner: Pre-built tuner to adopt instead of constructing one
            (used when restoring a fleet from snapshots).
        advice: Optional DBA advice forwarded to the tuner; ignored
            when ``tuner`` is pre-built.
        engine: Name of the tuning engine to construct (a key of
            :data:`repro.engines.ENGINES`; its configuration is derived
            from ``config`` by the table's adapter); ignored when
            ``tuner`` is pre-built.
    """

    def __init__(
        self,
        replica_id: int,
        catalog: Catalog,
        config: Optional[ColtConfig] = None,
        breaker: Optional[CircuitBreaker] = None,
        tuner: Optional[TuningLoop] = None,
        engine: str = "colt",
        advice=None,
    ) -> None:
        self.replica_id = replica_id
        self.catalog = catalog
        if tuner is None:
            tuner = engine_spec(engine).build(
                catalog,
                config,
                breaker=breaker,
                advice=advice,
            )
        self.tuner = tuner
        self.stats = ReplicaStats()

    # ------------------------------------------------------------------
    @property
    def engine(self) -> str:
        """Name of the tuning engine this replica runs."""
        return self.tuner.engine_name

    @property
    def health(self) -> ReplicaHealth:
        """Current health, read off the profiling circuit breaker."""
        return ReplicaHealth.from_breaker(self.tuner.profiler.breaker.state)

    @property
    def breaker(self) -> CircuitBreaker:
        """The replica's profiling circuit breaker."""
        return self.tuner.profiler.breaker

    @property
    def materialized_names(self) -> List[str]:
        """Names of the replica's currently materialized indexes."""
        return [ix.name for ix in self.tuner.materialized_set]

    # ------------------------------------------------------------------
    def process(self, query: Query, on_error: str = "raise") -> QueryOutcome:
        """Process one routed query through this replica's tuner.

        Args:
            query: The bound query.
            on_error: Forwarded to :meth:`~repro.core.loop.TuningLoop.run`
                -- ``"skip"`` records a failed query as a zero-cost
                outcome carrying its exception instead of raising.
        """
        outcome = self.tuner.run([query], on_error=on_error)[0]
        self._account(outcome)
        return outcome

    def snapshot(self) -> Dict:
        """The tuner's durable state (:func:`repro.persist.snapshot_any`)."""
        return snapshot_any(self.tuner)

    def metrics_snapshot(self) -> Dict:
        """The tuner's metrics snapshot (this replica's share of the fleet's)."""
        return self.tuner.metrics_snapshot()

    def idle_tick(self) -> None:
        """Advance the breaker clock while this replica receives no traffic.

        A drained replica sees no queries, so its breaker would never
        reach the HALF_OPEN cooldown on its own; the coordinator ticks
        it once per fleet arrival instead (queries as clock, as
        everywhere else in the simulation).
        """
        self.tuner.profiler.breaker.tick()

    # ------------------------------------------------------------------
    def trace(self) -> TunerTrace:
        """The replica's per-epoch decision trace so far."""
        from repro.bench.tracing import TunerTrace

        return TunerTrace.of(self.tuner)

    def _account(self, outcome: QueryOutcome) -> None:
        self.stats.queries += 1
        self.stats.execution_cost += outcome.execution_cost
        self.stats.total_cost += outcome.total_cost
        self.stats.whatif_calls += outcome.whatif_calls
        if outcome.failed:
            self.stats.failed += 1
