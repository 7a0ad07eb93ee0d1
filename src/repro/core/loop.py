"""The tuning loop every on-line engine runs inside.

The paper describes one loop -- per query: optimize, observe within the
epoch's budget; per epoch: select under the storage budget, apply,
re-budget (Fig. 2, §5).  :class:`TuningLoop` is that loop, once: it owns
construction wiring, the per-query frame, the epoch clock, inserts,
``run``, the close's ruling pipeline (DBA advice, guardrail quarantine,
pushed rulings, the engine's safety stage -- merged once) and the
scheduler apply protocol.  An engine
(:class:`~repro.core.colt.ColtTuner`,
:class:`~repro.bandit.tuner.BanditTuner`) subclasses it and supplies
only what differs: how a query is observed and how an epoch's evidence
becomes a :class:`~repro.core.self_organizer.ReorganizationResult`.
See ``DESIGN.md`` ("Engine contract") for the hook list and for how a
further engine registers in :mod:`repro.engines`.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.backend.local import LocalBackend
from repro.core.config import ColtConfig
from repro.core.knapsack import Ruling, constraints_from
from repro.core.scheduler import Scheduler
from repro.guardrails.advice import AdviceBook
from repro.obs.dashboard import OverheadDashboard
from repro.obs.export import build_snapshot
from repro.obs.registry import MetricsRegistry
from repro.optimizer.whatif import WhatIfOptimizer

if TYPE_CHECKING:
    from repro.backend.base import Backend
    from repro.bandit.tuner import SafetyWatch  # that module imports this one
    from repro.core.knapsack import SelectionConstraints
    from repro.core.self_organizer import ReorganizationResult
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef
    from repro.engine.storage import PhysicalStore
    from repro.guardrails.manager import GuardrailManager
    from repro.optimizer.plan import PlanNode
    from repro.resilience.breaker import CircuitBreaker
    from repro.resilience.faults import FaultInjector
    from repro.sql.ast import Query


@dataclasses.dataclass
class InsertOutcome:
    """Ledger record for a batch of inserts (write-aware extension).

    Attributes:
        table: Target table.
        count: Rows inserted.
        heap_cost: Cost of appending to the heap.
        maintenance_cost: Cost of keeping the table's materialized
            indexes up to date for these rows.
        total_cost: Sum of the above.
    """

    table: str
    count: int
    heap_cost: float
    maintenance_cost: float
    total_cost: float


@dataclasses.dataclass
class QueryOutcome:
    """Ledger record for one processed query.

    Attributes:
        index: 0-based position of the query in the stream.
        execution_cost: Optimizer cost of the chosen plan under the
            configuration in force when the query ran.
        whatif_calls: What-if calls spent profiling this query.
        whatif_overhead: Cost units charged for those calls.
        verify_calls: Guardrail verification probes spent on this query
            (0 with no guardrail manager attached).
        verify_overhead: Cost units charged for those probes (optimizer
            calls plus any shadow-execution charge).
        build_cost: Index build cost charged at the epoch boundary this
            query closed (0 otherwise).
        total_cost: Sum of the above -- the COLT-side response-time
            analogue the paper measures.
        plan: The executed plan (None for a failed query recorded in
            ``on_error="skip"`` mode).
        epoch_ended: Whether this query closed an epoch.
        reorganization: The engine's decisions, when an epoch ended.
        error: The exception that aborted this query, when it was
            recorded by :meth:`TuningLoop.run` in ``"skip"`` mode; None
            for queries that processed normally.
    """

    index: int
    execution_cost: float
    whatif_calls: int
    whatif_overhead: float
    build_cost: float
    total_cost: float
    plan: Optional[PlanNode]
    verify_calls: int = 0
    verify_overhead: float = 0.0
    epoch_ended: bool = False
    reorganization: Optional[ReorganizationResult] = None
    error: Optional[BaseException] = None

    @property
    def failed(self) -> bool:
        """Whether this record stands in for a query that errored."""
        return self.error is not None


class TuningLoop:
    """Per-query / per-epoch skeleton shared by every tuning engine.

    Args:
        catalog: The catalog to tune.  Its materialized set is owned by
            the tuner from now on.
        config: The tuning parameters every engine reads; defaults to
            ``ColtConfig()`` (the paper's).
        store: Optional physical store; when given, materializations
            build real B+trees so queries can be executed.
        breaker: Circuit breaker guarding the engine's probes; defaults
            to a fresh one with standard thresholds.
        fault_injector: Optional fault injector; when given, its
            failpoints are installed on the what-if optimizer and the
            scheduler (testing and chaos runs).
        registry: Metrics registry shared by the tuner and its
            components; defaults to a fresh one.
        guardrails: Optional :class:`~repro.guardrails.manager.
            GuardrailManager` closing the predict->observe->act loop:
            per-query observed-cost verification and quarantine of
            over-promised indexes.  None (the default) changes nothing.
        backend: DBMS backend answering what-if probes; defaults to a
            :class:`~repro.backend.local.LocalBackend` over ``catalog``
            (the in-python engine).  Must describe the same catalog.
        advice: DBA pin/ban/prefer directives
            (:class:`~repro.guardrails.advice.AdviceBook`), resolved
            against ``catalog`` here and ruled at every close.

    Attributes:
        dashboard: The epoch log: one bounded row per close (probe
            budget, costs, decisions) plus exact running totals.

    An engine sets the class attributes ``engine_name`` and
    ``budget_label`` and implements the ``_build_engine`` ..
    ``_applied`` hooks below.  ``_build_engine`` must leave behind
    ``self.profiler`` (exposing ``breaker``, ``candidates`` and
    ``gain_cache``) and the sets ``self.materialized`` / ``self.hot``; it
    may set ``self.safety``.  A failed arrival is counted by its
    ``QueryOutcome.failed``, not by a collector.
    """

    #: Key of this engine in :data:`repro.engines.ENGINES`.
    engine_name: str
    #: What the dashboard's requested/granted/spent columns count.
    budget_label: str
    #: The engine's safety stage, when it has one (the bandit's).
    safety: Optional["SafetyWatch"] = None

    def __init__(
        self,
        catalog: Catalog,
        config: Optional[ColtConfig] = None,
        store: Optional[PhysicalStore] = None,
        breaker: Optional[CircuitBreaker] = None,
        fault_injector: Optional[FaultInjector] = None,
        registry: Optional[MetricsRegistry] = None,
        guardrails: Optional["GuardrailManager"] = None,
        backend: Optional[Backend] = None,
        advice: Optional[AdviceBook] = None,
    ) -> None:
        self.catalog = catalog
        self.config = config or ColtConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.dashboard = OverheadDashboard()
        self.backend = backend if backend is not None else LocalBackend(catalog)
        if self.backend.catalog is not catalog:
            raise ValueError("backend and tuner must share one catalog")
        self.backend.bind_registry(self.registry)
        self.whatif = WhatIfOptimizer(self.backend)
        self._store = store
        self._queries_seen = 0
        self._build_engine(breaker)
        self.scheduler = Scheduler(catalog, store=store)
        if fault_injector is not None:
            fault_injector.attach(self)
        self.advice = advice or AdviceBook()
        pinned, banned, preferred = self.advice.resolve(catalog)
        self._advice = (
            *(Ruling(ix, "pin", "dba", reason="advice") for ix in pinned),
            *(Ruling(ix, "ban", "dba", reason="advice") for ix in banned),
            *(Ruling(ix, "prefer", "dba", w, "advice") for ix, w in preferred),
        )
        self._pushed: Dict[str, Tuple[Ruling, ...]] = {}
        self.guardrails = guardrails
        if guardrails is not None:
            guardrails.attach(self)

    # ------------------------------------------------------------------
    # engine hooks
    def _build_engine(self, breaker: Optional[CircuitBreaker]) -> None:
        """Create the engine's components, state and metric collectors."""
        raise NotImplementedError

    def _observe_query(self, query: Query, session) -> Tuple[int, float]:
        """Learn from one optimized query within the epoch's budget.

        Returns:
            (probe calls, overhead charged) for the ledger record.
        """
        raise NotImplementedError

    def _count_query(self, session, calls: int, overhead: float) -> None:
        """Fold one successfully processed query into engine metrics."""
        raise NotImplementedError

    def _note_insert(self, table: str, n: int) -> None:
        """Record ``n`` rows written to ``table`` as engine evidence."""
        raise NotImplementedError

    def _epoch_budget(self) -> Tuple[int, int, int]:
        """(requested, granted, spent) probe budget of the closing epoch."""
        raise NotImplementedError

    def _digest_epoch(self):
        """Summarize the closing epoch's evidence and reset per-epoch state.

        Returns:
            Whatever :meth:`_decide` needs (engine-private).
        """
        raise NotImplementedError

    def _decide(
        self, evidence, constraints: SelectionConstraints
    ) -> ReorganizationResult:
        """Select the next configuration; updates ``materialized``/``hot``."""
        raise NotImplementedError

    def _applied(self, reorg: ReorganizationResult, changed: bool) -> None:
        """React to the scheduler having applied ``reorg``.

        ``changed`` is true when the materialized set moved (builds,
        drops or recovered retries); ``reorg.build_failures`` is filled.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    def push_rulings(self, source: str, rulings) -> None:
        """Replace the rulings an outside controller keeps on this tuner.

        Every close rules a source's rulings until the next push under
        the same source (an empty one withdraws them).  Pushed
        ``"prefer"`` rulings are seeded into the candidate tracker so
        the engine can credit them without waiting for the miner.
        """
        self._pushed[source] = tuple(sorted(rulings, key=lambda r: str(r.index)))
        self.profiler.candidates.seed(
            r.index for r in self._pushed[source] if r.kind == "prefer"
        )

    @property
    def standing_rulings(self) -> Tuple[Ruling, ...]:
        """The rulings in force between closes: DBA advice, then pushed."""
        return (*self._advice, *itertools.chain.from_iterable(self._pushed.values()))

    @property
    def materialized_set(self) -> List[IndexDef]:
        """The current materialized set ``M``."""
        return sorted(self.materialized, key=str)

    @property
    def hot_set(self) -> List[IndexDef]:
        """The current hot set ``H`` (indexes close to selection)."""
        return sorted(self.hot, key=str)

    @property
    def queries_seen(self) -> int:
        """Number of queries processed so far."""
        return self._queries_seen

    @property
    def metrics(self) -> MetricsRegistry:
        """The tuner's metrics registry (shared with its components)."""
        return self.registry

    def metrics_snapshot(self) -> Dict:
        """Self-describing snapshot: metric families and overhead."""
        return build_snapshot(
            self.registry.snapshot(), overhead=self.dashboard.to_rows()
        )

    # ------------------------------------------------------------------
    def process_query(self, query: Query) -> QueryOutcome:
        """Process one arriving (bound) query.

        Optimizes it under the current configuration, lets the engine
        observe it within the epoch's probe budget, and -- when the
        query closes an epoch -- runs the engine's reorganization,
        applying any materialization decisions through the scheduler.

        Returns:
            The ledger record for the query.
        """
        index = self._queries_seen
        session = self.whatif.begin_query(query)
        calls, overhead = self._observe_query(query, session)

        verify_calls = 0
        verify_overhead = 0.0
        if self.guardrails is not None:
            # Verification probes re-optimize directly (bypassing
            # the what-if call counter), so the engine's accounting
            # above stays untouched; their cost is charged here.
            verify_calls, verify_charge = self.guardrails.observe_query(
                session, self.materialized
            )
            verify_overhead = (
                verify_calls * self.config.whatif_call_cost + verify_charge
            )

        base = session.base
        cost = base.cost + overhead + verify_overhead
        self._queries_seen += 1
        build_cost = 0.0
        reorg: Optional[ReorganizationResult] = None
        epoch_ended = self._queries_seen % self.config.epoch_length == 0
        if epoch_ended:
            reorg, build_cost = self._end_epoch(base.cost, cost, calls)

        self._count_query(session, calls, overhead)
        if not epoch_ended:
            log = self.dashboard
            log.open_execution += base.cost
            log.open_total += cost
            log.open_whatif += calls
        return QueryOutcome(
            index=index,
            execution_cost=base.cost,
            whatif_calls=calls,
            whatif_overhead=overhead,
            build_cost=build_cost,
            total_cost=cost + build_cost,
            plan=base.plan,
            verify_calls=verify_calls,
            verify_overhead=verify_overhead,
            epoch_ended=epoch_ended,
            reorganization=reorg,
        )

    def process_insert(self, table: str, rows=None, count: Optional[int] = None) -> InsertOutcome:
        """Process a batch of inserts (write-aware extension).

        The batch is charged a heap-append cost plus one maintenance
        charge per (row, materialized index on the table); the observed
        write volume feeds the engine, which retires indexes on
        write-hot tables accordingly.

        Args:
            table: Target table.
            rows: Concrete rows to insert.  Required when the tuner is
                attached to a physical store (heaps and trees are
                actually updated); optional in pure cost-model mode.
            count: Number of rows when ``rows`` is omitted (statistics-
                only insert).

        Returns:
            The ledger record for the batch.

        Raises:
            ValueError: if neither ``rows`` nor ``count`` is given, if
                ``count`` is negative, or if ``rows`` is omitted while a
                physical store is attached.  Nothing is mutated.
        """
        if rows is None and count is None:
            raise ValueError("provide rows or count")
        if count is not None and count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if self._store is not None:
            if rows is None:
                raise ValueError(
                    "a physical store is attached: concrete rows are required"
                )
            n = self._store.apply_inserts(table, rows)
        else:
            n = len(list(rows)) if rows is not None else int(count)
            self.catalog.apply_row_delta(table, n)
        self._note_insert(table, n)

        params = self.catalog.params
        n_indexes = len(self.catalog.materialized_indexes(table))
        heap_cost = n * params.cpu_tuple_cost
        maintenance = n * n_indexes * params.index_maintain_cost_per_tuple
        return InsertOutcome(
            table=table,
            count=n,
            heap_cost=heap_cost,
            maintenance_cost=maintenance,
            total_cost=heap_cost + maintenance,
        )

    def run(self, queries, on_error: str = "raise") -> List[QueryOutcome]:
        """Process a sequence of queries, returning all ledger records.

        Args:
            queries: Bound queries in arrival order.
            on_error: ``"raise"`` propagates the first failure
                (discarding nothing the caller already holds, but ending
                the run); ``"skip"`` records the failed query as a
                :class:`QueryOutcome` carrying its exception and keeps
                going, so one bad query no longer discards all prior
                ledger records.  The failed arrival still ticks the
                epoch clock: when it lands on an epoch boundary the
                epoch is closed and the record carries the
                reorganization and its build cost.

        Raises:
            ValueError: for an unknown ``on_error`` mode.
        """
        if on_error not in ("raise", "skip"):
            raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
        outcomes: List[QueryOutcome] = []
        for query in queries:
            seen_before = self._queries_seen
            try:
                outcomes.append(self.process_query(query))
            except Exception as exc:
                if on_error == "raise":
                    raise
                outcomes.append(self._skip_query(exc, seen_before))
        return outcomes

    def _skip_query(self, exc: Exception, seen_before: int) -> QueryOutcome:
        """The ledger record for an arrival that raised ``exc``."""
        build_cost = 0.0
        reorg: Optional[ReorganizationResult] = None
        # Keep the epoch clock ticking for the failed arrival unless
        # process_query already counted it (then the close itself is
        # what failed, and is not attempted twice).
        if self._queries_seen == seen_before:
            self._queries_seen += 1
            if self._queries_seen % self.config.epoch_length == 0:
                reorg, build_cost = self._end_epoch()
        return QueryOutcome(
            index=self._queries_seen - 1,
            execution_cost=0.0,
            whatif_calls=0,
            whatif_overhead=0.0,
            build_cost=build_cost,
            total_cost=build_cost,
            plan=None,
            epoch_ended=reorg is not None,
            reorganization=reorg,
            error=exc,
        )

    # ------------------------------------------------------------------
    def _end_epoch(
        self, execution: float = 0.0, cost: float = 0.0, calls: int = 0
    ) -> Tuple[ReorganizationResult, float]:
        """Close the epoch the clock just completed and log its row, which
        counts the closing query's ``execution`` cost, ``cost`` before
        build charges and what-if ``calls`` only if the close succeeds.

        Returns:
            (the boundary's decisions, build cost charged applying them).
        """
        # Budget accounting must be read before the digest resets the
        # engine's spend counter.
        requested, granted, spent = self._epoch_budget()
        epoch = self._queries_seen // self.config.epoch_length - 1
        evidence = self._digest_epoch()
        # The stages, in order: DBA advice; guardrail quarantine (a
        # fresh admission is already a ban at this boundary, so the
        # index falls out of the selection and is dropped); what the
        # fleet pushed; the engine's safety stage.  One merge.
        quarantine, quarantined, released = (), [], []
        if self.guardrails is not None:
            quarantine, quarantined, released = self.guardrails.end_epoch(
                self.materialized, epoch
            )
        safety = ()
        if self.safety is not None:
            safety = self.safety.rulings(epoch, evidence, self.materialized)
        pushed = itertools.chain.from_iterable(self._pushed.values())
        rulings = (*self._advice, *quarantine, *pushed, *safety)
        reorg = self._decide(evidence, constraints_from(rulings))
        reorg.rulings = rulings
        reorg.quarantined, reorg.released = quarantined, released
        build_cost = self._apply(reorg)
        if self.safety is not None:
            self.safety.applied(reorg)
        log = self.dashboard
        log.open_execution += execution
        log.open_total += cost + build_cost
        log.open_whatif += calls
        log.record(
            requested, granted, spent, reorg.improvement_ratio, build_cost,
            reorg.breaker_state, reorg.whatif_budget, self.materialized,
            reorg.materialize, reorg.drop, reorg.hot,
        )
        return reorg, build_cost

    def _apply(self, reorg: ReorganizationResult) -> float:
        # Retry previously failed builds whose backoff elapsed, then
        # apply this boundary's fresh decisions.  Most boundaries decide
        # nothing: then only the retry clock ticks.
        scheduler = self.scheduler
        retry = scheduler.advance_epoch()
        build_cost = retry.charged
        for index in retry.recovered:
            self.materialized.add(index)
        if reorg.materialize:
            build_cost += scheduler.request_materialization(reorg.materialize)
            # A failed build leaves the index unmaterialized: take it back
            # out of M so the next selection sees reality, and surface it
            # on the ledger record.
            failed = [
                ix for ix in reorg.materialize if not self.catalog.is_materialized(ix)
            ]
            for index in failed:
                self.materialized.discard(index)
            reorg.build_failures = failed
        if reorg.drop:
            scheduler.request_drop(reorg.drop)
            if self.guardrails is not None:
                # Dropped indexes' verification evidence is stale by
                # definition; a re-materialized index re-earns its verdict.
                self.guardrails.on_drop(reorg.drop)
        reorg.recovered_builds = list(retry.recovered)
        reorg.abandoned_builds = list(retry.abandoned)
        reorg.breaker_state = self.profiler.breaker.state.value
        self._applied(
            reorg, bool(reorg.materialize or reorg.drop or retry.recovered)
        )
        return build_cost
