"""The C³-UCB bandit tuner: index selection from observed rewards.

Where COLT forecasts index benefit from what-if optimizer estimates,
the bandit treats each candidate index as an *arm* of a contextual
combinatorial linear bandit (the C³-UCB construction of the DBA-bandits
line of work): every decision round it scores each arm by an optimistic
reward estimate ``theta^T x + alpha * sqrt(x^T V^-1 x)`` over context
features, picks the *super-arm* (set of arms) maximizing total estimate
under the storage budget -- the same knapsack COLT uses, serving as the
combinatorial oracle -- and then learns from what actually happened:
rewards are cost savings measured on the instrumented executor (or plan
costs in pure cost-model mode), not optimizer promises.

Safety rails:

* **Forced exploration** -- for the first few rounds the super-arm is
  chosen without build-cost hysteresis, so high-uncertainty arms get
  materialized and produce reward evidence.
* **Shrinking ellipsoid** -- the confidence term decays as observations
  accumulate in ``V``; the optional forgetting factor re-inflates it
  under drift.
* **Safety fallback** -- when the observed per-query cost of the round
  following a configuration change regresses past
  ``safety_factor x`` the pre-change cost, the change is reverted and
  the added arms are banned for a cooldown.

The class conforms to the :class:`~repro.core.colt.ColtTuner` surface
(``run``/``process_query`` loop, :class:`QueryOutcome` ledger records,
:class:`ReorganizationResult` at boundaries, snapshot save/restore,
metrics registry, breaker hooks), so the fleet, guardrails, CLI, and
fault injection drive either engine unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.bandit.config import BanditConfig
from repro.bandit.features import FEATURE_DIM, FeatureMap
from repro.bandit.linucb import RidgeModel
from repro.core.candidates import CandidateTracker
from repro.core.colt import InsertOutcome, QueryOutcome
from repro.core.gaincache import GainCache
from repro.core.knapsack import (
    KnapsackItem,
    SelectionConstraints,
    solve_constrained,
)
from repro.core.scheduler import Scheduler, SchedulingPolicy
from repro.core.self_organizer import ReorganizationResult
from repro.engine.catalog import Catalog
from repro.engine.index import IndexDef
from repro.engine.storage import PhysicalStore
from repro.executor.executor import execute
from repro.executor.instrument import CountingStore
from repro.guardrails.synthesis import synthesize_constraints
from repro.guardrails.verify import observed_cost
from repro.obs.dashboard import OverheadDashboard
from repro.obs.export import build_snapshot
from repro.obs.names import BANDIT_METRICS, RESILIENCE_METRICS
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import SpanTracer
from repro.backend.base import Backend
from repro.backend.local import LocalBackend
from repro.optimizer.whatif import WhatIfOptimizer
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import RetryPolicy
from repro.sql.ast import Query

if TYPE_CHECKING:  # avoid repro.bandit <-> repro.guardrails import cycle
    from repro.guardrails.manager import GuardrailManager

# Composite-safe index identity, shared with the Self-Organizer.
IndexKey = Tuple[str, Tuple[str, ...]]


def _key(index: IndexDef) -> IndexKey:
    return index.table, index.columns


class BanditProfile:
    """The bandit's stand-in for COLT's :class:`Profiler`.

    Fleet replicas, fault injectors, and snapshots reach component
    state through ``tuner.profiler.<attr>``; this shim carries the
    attributes that contract names -- a live circuit breaker (reward
    probes run behind it), the candidate tracker, and a disabled gain
    cache whose metric families still register so the observability
    contract holds for the bandit engine too.  What-if budgeting is
    inert: the bandit spends a fixed observation budget per round, not
    COLT's adaptive ``#WI_lim``.
    """

    def __init__(
        self,
        catalog: Catalog,
        whatif: WhatIfOptimizer,
        config: BanditConfig,
        breaker: Optional[CircuitBreaker] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = registry or MetricsRegistry(enabled=False)
        self.breaker = breaker or CircuitBreaker()
        transitions = RESILIENCE_METRICS["breaker_transitions_total"].build(
            self.registry
        )
        self.breaker.add_listener(
            lambda origin, to: transitions.inc(1, from_state=origin, to_state=to)
        )
        self.gain_cache = GainCache(
            catalog,
            whatif,
            enabled=False,
            ttl_epochs=config.history_epochs,
            registry=self.registry,
        )
        self.candidates = CandidateTracker(
            catalog,
            config.history_epochs,
            config.smoothing,
            composite=config.composite_candidates,
        )
        self.whatif_budget = 0
        self.whatif_used = 0
        self.probe_failures = 0

    def set_budget(self, budget: int) -> None:
        """No-op: the bandit has no adaptive what-if budget."""

    def purge_stale(self) -> None:
        """No-op: the bandit keeps no pair statistics to purge."""


class BanditTuner:
    """On-line index tuning by contextual combinatorial UCB.

    Accepts the same construction surface as
    :class:`~repro.core.colt.ColtTuner` (catalog, optional store,
    scheduling policy, breaker, retry, fault injector, registry,
    guardrails) so every existing harness can swap engines.

    Args:
        catalog: The catalog to tune; its materialized set is owned by
            the tuner from now on.
        config: Bandit parameters (:class:`BanditConfig`).
        store: Optional physical store.  When given, rewards are priced
            from real executions on a :class:`CountingStore`; without
            one, optimizer plan costs stand in (still *post-decision*
            costs, never what-if forecasts of unbuilt indexes).
        policy: Materialization scheduling policy.
        breaker: Circuit breaker guarding reward probes.
        retry: Backoff policy for failed index builds.
        fault_injector: Optional fault injector (installs failpoints on
            ``self.whatif`` and ``self.scheduler``, same as for COLT).
        registry: Metrics registry; defaults to a fresh enabled one.
        guardrails: Optional guardrail manager; verification, quarantine
            and DBA constraints apply to the bandit's knapsack exactly
            as to COLT's.
    """

    def __init__(
        self,
        catalog: Catalog,
        config: Optional[BanditConfig] = None,
        store: Optional[PhysicalStore] = None,
        policy: SchedulingPolicy = SchedulingPolicy.IMMEDIATE,
        breaker: Optional[CircuitBreaker] = None,
        retry: Optional[RetryPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
        registry: Optional[MetricsRegistry] = None,
        guardrails: Optional["GuardrailManager"] = None,
        backend: Optional[Backend] = None,
    ) -> None:
        self.catalog = catalog
        self.config = config or BanditConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = SpanTracer(enabled=self.registry.enabled)
        self.dashboard = OverheadDashboard()
        self.backend = backend if backend is not None else LocalBackend(catalog)
        if self.backend.catalog is not catalog:
            raise ValueError("backend and tuner must share one catalog")
        self.backend.bind_registry(self.registry)
        self.optimizer = getattr(self.backend, "optimizer", None)
        self.whatif = WhatIfOptimizer(backend=self.backend)
        self.profiler = BanditProfile(
            catalog, self.whatif, self.config, breaker=breaker, registry=self.registry
        )
        self.scheduler = Scheduler(
            catalog, store=store, policy=policy, retry=retry, registry=self.registry
        )
        self.scheduler.on_change = lambda changed: (
            self.profiler.gain_cache.invalidate_indexes(
                changed, reason="materialization"
            )
        )
        if fault_injector is not None:
            fault_injector.attach(self)
        self._store = store
        self._counting = CountingStore(store) if store is not None else None
        self.model = RidgeModel(
            FEATURE_DIM,
            lambda_reg=self.config.lambda_reg,
            forgetting=self.config.forgetting,
        )
        self.features = FeatureMap(catalog, self.config.storage_budget_pages)
        self.materialized = set(catalog.materialized_indexes())
        self.hot: List[IndexDef] = []
        self._queries_seen = 0
        self._epochs_closed = 0
        # Per-round reward bookkeeping.
        self._epoch_rewards: Dict[IndexKey, List[float]] = {}
        self._epoch_uses: Dict[IndexKey, int] = {}
        self._epoch_observed_cost = 0.0
        self._epoch_probes = 0
        # Safety fallback: the last change watched, and live arm bans.
        self._safety_watch: Optional[Tuple[List[IndexDef], float]] = None
        self._safety_bans: Dict[IndexKey, Tuple[IndexDef, int]] = {}
        self._prev_solution_value = 0.0
        self._metrics = {
            name: spec.build(self.registry) for name, spec in BANDIT_METRICS.items()
        }
        self._metrics["bandit_materialized_indexes"].set(len(self.materialized))
        self.guardrails = guardrails
        if guardrails is not None:
            guardrails.attach(self)
        # Advisory soft preferences pushed down by an external adviser
        # (the fleet co-tuning controller); merged with guardrail
        # constraints at each epoch boundary, pins/bans winning.
        self._advisory: Tuple = ()

    # ------------------------------------------------------------------
    def set_advisory(self, preferred) -> None:
        """Install advisory ``(IndexDef, weight)`` soft preferences.

        Mirrors ``ColtTuner.set_advisory``: the fleet's co-tuning loop
        biases this replica's super-arm knapsack toward its workload
        partition, and the partition footprint is seeded into the
        candidate tracker so it can enter the arm pool.  An empty
        sequence clears stale advice.
        """
        self._advisory = tuple(
            sorted(preferred, key=lambda kv: str(kv[0]))
        )
        self.profiler.candidates.seed(ix for ix, _ in self._advisory)

    @property
    def materialized_set(self) -> List[IndexDef]:
        """The current materialized set ``M``."""
        return sorted(self.materialized, key=str)

    @property
    def hot_set(self) -> List[IndexDef]:
        """Arms close to selection (reporting parity with COLT's ``H``)."""
        return sorted(self.hot, key=str)

    @property
    def queries_seen(self) -> int:
        """Number of queries processed so far."""
        return self._queries_seen

    @property
    def epochs_closed(self) -> int:
        """Decision rounds completed so far."""
        return self._epochs_closed

    @property
    def metrics(self) -> MetricsRegistry:
        """The tuner's metrics registry (shared with its components)."""
        return self.registry

    def metrics_snapshot(self) -> Dict:
        """Self-describing snapshot: metric families, overhead, spans."""
        return build_snapshot(
            self.registry.snapshot(),
            overhead=self.dashboard.to_rows(),
            spans=self.tracer.summary(),
        )

    # ------------------------------------------------------------------
    def process_query(self, query: Query) -> QueryOutcome:
        """Process one arriving (bound) query.

        Optimizes it under the configuration in force, records arm
        usage and (within the round's observation budget) counterfactual
        reward samples, and -- at round boundaries -- updates the model
        and re-selects the super-arm.

        Returns:
            The ledger record for the query (same type COLT emits).
        """
        with self.tracer.span("query", index=self._queries_seen):
            self.profiler.breaker.tick()
            session = self.whatif.begin_query(query)
            self.features.note_query(query.tables)
            used = session.base.plan.indexes_used()
            self.profiler.candidates.observe_query(
                query, used, self.materialized, session.cache
            )

            verify_calls = 0
            verify_overhead = 0.0
            if self.guardrails is not None:
                verify_calls, verify_charge = self.guardrails.observe_query(
                    session, self.materialized
                )
                verify_overhead = (
                    verify_calls * self.config.whatif_call_cost + verify_charge
                )

            base_observed = self._price_base(session)
            self._epoch_observed_cost += base_observed
            probe_calls, probe_overhead = self._observe_rewards(
                session, used, base_observed
            )

            self._queries_seen += 1
            build_cost = 0.0
            reorg: Optional[ReorganizationResult] = None
            epoch_ended = self._queries_seen % self.config.epoch_length == 0
            if epoch_ended:
                epoch = self._queries_seen // self.config.epoch_length - 1
                with self.tracer.span("epoch_close", epoch=epoch):
                    probes_spent = self._epoch_probes
                    reorg = self._close_epoch()
                    build_cost = self._apply(reorg)
                self._record_epoch(reorg, probes_spent, build_cost)

        self._metrics["bandit_queries_total"].inc()
        return QueryOutcome(
            index=self._queries_seen - 1,
            execution_cost=session.base.cost,
            whatif_calls=probe_calls,
            whatif_overhead=probe_overhead,
            build_cost=build_cost,
            total_cost=session.base.cost
            + probe_overhead
            + verify_overhead
            + build_cost,
            plan=session.base.plan,
            verify_calls=verify_calls,
            verify_overhead=verify_overhead,
            epoch_ended=epoch_ended,
            reorganization=reorg,
        )

    def process_insert(self, table: str, rows=None, count: Optional[int] = None) -> InsertOutcome:
        """Process a batch of inserts (write-aware extension).

        Mirrors :meth:`ColtTuner.process_insert` -- heap append plus one
        maintenance charge per (row, materialized index on the table) --
        and additionally feeds the write-pressure feature, which is how
        the bandit learns to retire indexes on write-hot tables.
        """
        if rows is None and count is None:
            raise ValueError("provide rows or count")
        if self._store is not None:
            if rows is None:
                raise ValueError(
                    "a physical store is attached: concrete rows are required"
                )
            n = self._store.apply_inserts(table, rows)
        else:
            n = len(list(rows)) if rows is not None else int(count)
            self.catalog.apply_row_delta(table, n)
        self.profiler.gain_cache.invalidate_table(table)
        self.features.note_insert(table, n)

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

        Same contract as :meth:`ColtTuner.run`: ``"raise"`` propagates
        the first failure, ``"skip"`` records it as a zero-cost outcome
        carrying the exception and keeps the epoch clock ticking.
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
                if self._queries_seen == seen_before:
                    self._queries_seen += 1
                self._metrics["bandit_query_failures_total"].inc()
                outcomes.append(
                    QueryOutcome(
                        index=self._queries_seen - 1,
                        execution_cost=0.0,
                        whatif_calls=0,
                        whatif_overhead=0.0,
                        build_cost=0.0,
                        total_cost=0.0,
                        plan=None,
                        error=exc,
                    )
                )
        return outcomes

    # ------------------------------------------------------------------
    # reward observation
    def _price_base(self, session) -> float:
        """Observed cost of the query as it actually ran."""
        if self._counting is None:
            return session.base.cost
        self._counting.counters.reset()
        execute(session.base.plan, self._counting)
        return observed_cost(self._counting.counters, self.catalog.params)

    def _price_plan(self, plan) -> float:
        """Observed cost of a counterfactual plan (shadow execution)."""
        self._counting.counters.reset()
        execute(plan, self._counting)
        return observed_cost(self._counting.counters, self.catalog.params)

    def _observe_rewards(self, session, used, base_observed: float) -> Tuple[int, float]:
        """Sample per-arm rewards for this query.

        Every materialized index the plan used counts as a *use*; within
        the round's observation budget, one counterfactual probe per
        used arm re-optimizes the query with the arm's *whole table*
        de-indexed and prices both plans, yielding the arm's reward
        sample (cost the table's indexing saved on this query, credited
        to the arm the plan chose).  The table-level counterfactual --
        rather than removing just the one arm -- is deliberate: with
        redundant twins materialized, each arm's marginal gain is ~0
        (its twin covers it) even when the whole set is actively
        harmful, an equilibrium that would never produce the negative
        rewards needed to escape it.  Probes run behind the circuit
        breaker and honour the what-if failpoint, so chaos tests
        exercise the same degradation path as COLT's profiler.

        Returns:
            (probe count, overhead charged) for this query.
        """
        calls = 0
        charge = 0.0
        mat = frozenset(self.materialized)
        for index in sorted(used, key=str):
            if index not in mat:
                continue
            key = _key(index)
            self._epoch_uses[key] = self._epoch_uses.get(key, 0) + 1
            if self._epoch_probes >= self.config.observe_per_epoch:
                continue
            if not self.profiler.breaker.allows_probes():
                continue
            without_config = frozenset(
                ix for ix in mat if ix.table != index.table
            )
            try:
                if self.whatif.failpoint is not None:
                    self.whatif.failpoint(index)
                without = self.backend.optimize(
                    session.query, config=without_config, session=session
                )
            except Exception:
                self.profiler.breaker.record_failure()
                self.profiler.probe_failures += 1
                continue
            self.profiler.breaker.record_success()
            self._epoch_probes += 1
            calls += 1
            probe_charge = self.config.whatif_call_cost
            if self._counting is not None:
                without_observed = self._price_plan(without.plan)
                reward = without_observed - base_observed
                probe_charge += self.config.observe_cost_factor * without_observed
            else:
                reward = without.cost - session.base.cost
            charge += probe_charge
            self._epoch_rewards.setdefault(key, []).append(reward)
            self._metrics["bandit_observe_probes_total"].inc()
            self._metrics["bandit_observe_overhead_cost_total"].inc(probe_charge)
        return calls, charge

    # ------------------------------------------------------------------
    # decision rounds
    def _close_epoch(self) -> ReorganizationResult:
        """Update the model from the round's rewards, pick the super-arm."""
        epoch_length = self.config.epoch_length
        mean_cost = self._epoch_observed_cost / epoch_length

        # 1. Learn: fold the round's reward evidence into the model.
        self.model.decay()
        for index in sorted(self.materialized, key=str):
            key = _key(index)
            samples = self._epoch_rewards.get(key)
            uses = self._epoch_uses.get(key, 0)
            x = self.features.vector(
                index, self.profiler.candidates, self.materialized
            )
            if samples:
                # Extrapolate the sampled mean across every use this
                # round, then normalize to a per-query reward.
                reward = (sum(samples) / len(samples)) * uses / epoch_length
            elif uses == 0:
                # Materialized but unused: zero reward, observed free.
                reward = 0.0
            else:
                continue  # used but unprobed: no evidence, no update
            self.model.update(x, reward)
            self._metrics["bandit_reward_samples_total"].inc()
            self._metrics["bandit_reward"].observe(abs(reward))

        # 2. Safety fallback: judge the previous round's change.
        self._tick_safety(mean_cost)

        # 3. Roll workload state into the next round.
        self.profiler.candidates.roll_epoch(epoch_length)
        self.features.roll_epoch(epoch_length)
        self.profiler.gain_cache.roll_epoch()
        self._epoch_rewards = {}
        self._epoch_uses = {}
        self._epoch_observed_cost = 0.0
        self._epoch_probes = 0

        # 4. Guardrail verdicts land first (quarantine = hard ban).
        decisions = None
        constraints = SelectionConstraints()
        if self.guardrails is not None:
            decisions = self.guardrails.end_epoch(self.materialized)
            constraints = self.guardrails.constraints()
        # Advisory co-tuning preferences are soft and never override
        # pins/bans; with no advisory installed this is a no-op, so the
        # cotune-off path stays bit-identical.
        constraints = (
            synthesize_constraints(constraints, self._advisory)
            or SelectionConstraints()
        )

        # 5. Select the super-arm under the storage budget.
        reorg = self._select(constraints, mean_cost)
        if decisions is not None:
            reorg.quarantined = decisions.quarantined
            reorg.released = decisions.released
        self._epochs_closed += 1
        return reorg

    def _tick_safety(self, mean_cost: float) -> None:
        """Revert and ban the last change if observed cost regressed."""
        expired = [k for k, (_, left) in self._safety_bans.items() if left <= 1]
        self._safety_bans = {
            k: (ix, left - 1)
            for k, (ix, left) in self._safety_bans.items()
            if left > 1
        }
        del expired
        if self._safety_watch is None:
            return
        added, baseline = self._safety_watch
        self._safety_watch = None
        if baseline <= 0.0 or mean_cost <= self.config.safety_factor * baseline:
            return
        tripped = [ix for ix in added if ix in self.materialized]
        if not tripped:
            return
        for index in tripped:
            self._safety_bans[_key(index)] = (
                index,
                self.config.safety_cooldown_epochs,
            )
        self._metrics["bandit_safety_fallbacks_total"].inc()

    def _arm_pool(self) -> List[IndexDef]:
        """Arms for this round: ``M`` plus the best-ranked candidates."""
        pool: Dict[IndexKey, IndexDef] = {
            _key(ix): ix for ix in sorted(self.materialized, key=str)
        }
        budget = self.config.max_arms - len(pool)
        for stats in self.profiler.candidates.ranked(exclude=pool.values()):
            if budget <= 0:
                break
            key = _key(stats.index)
            if key in pool:
                continue
            pool[key] = stats.index
            budget -= 1
        return list(pool.values())

    def _select(
        self, constraints: SelectionConstraints, mean_cost: float
    ) -> ReorganizationResult:
        forced = self._epochs_closed < self.config.forced_exploration_epochs
        if forced:
            self._metrics["bandit_forced_exploration_epochs_total"].inc()
        epoch_length = self.config.epoch_length

        pool = self._arm_pool()
        # Advice-pinned indexes must be selectable even when never mined.
        present = {_key(ix) for ix in pool}
        for index in sorted(constraints.pinned, key=str):
            if _key(index) not in present:
                pool.append(index)
                present.add(_key(index))
        self._metrics["bandit_arms"].set(len(pool))
        items: List[KnapsackItem] = []
        scores: Dict[IndexKey, float] = {}
        for index in pool:
            x = self.features.vector(
                index, self.profiler.candidates, self.materialized
            )
            width = self.model.width(x)
            optimistic = self.model.mean(x) + self.config.alpha * width
            self._metrics["bandit_confidence_width"].observe(width)
            value = optimistic * epoch_length
            if not forced:
                build = self.catalog.index_build_cost(index)
                if index in self.materialized:
                    # Anti-thrash margin -- but never life support: an
                    # arm whose optimistic estimate has gone non-positive
                    # earns no retention credit and falls out.
                    if optimistic > 0.0:
                        value += self.config.retention_weight * build
                else:
                    value -= self.config.matcost_weight * build
            scores[_key(index)] = optimistic
            items.append(
                KnapsackItem(
                    key=index,
                    size=self.catalog.index_size_pages(index),
                    value=value,
                )
            )

        merged = self._merge_safety_bans(constraints)
        selected, total_value = solve_constrained(
            items,
            self.config.storage_budget_pages,
            merged,
            incumbent_value=0.0,
        )
        target = {it.key for it in selected}
        materialize = sorted(
            (ix for ix in target if ix not in self.materialized), key=str
        )
        drop = sorted(
            (ix for ix in self.materialized if ix not in target), key=str
        )
        self.hot = sorted(
            (ix for ix in pool if ix not in target and scores[_key(ix)] > 0.0),
            key=lambda ix: (-scores[_key(ix)], str(ix)),
        )[: self.config.max_hot_size]

        prev = self._prev_solution_value
        ratio = total_value / prev if prev > 1e-9 else 1.0
        self._prev_solution_value = max(total_value, 0.0)
        if materialize and mean_cost > 0.0:
            self._safety_watch = (list(materialize), mean_cost)
        return ReorganizationResult(
            materialize=materialize,
            drop=drop,
            hot=list(self.hot),
            whatif_budget=0,
            improvement_ratio=ratio,
        )

    def _merge_safety_bans(
        self, constraints: SelectionConstraints
    ) -> SelectionConstraints:
        bans = [ix for ix, _ in self._safety_bans.values()]
        if not bans:
            return constraints
        pinned = set(constraints.pinned)
        banned = set(constraints.banned) | {
            ix for ix in bans if ix not in pinned
        }
        return SelectionConstraints(
            pinned=frozenset(pinned),
            banned=frozenset(banned),
            preferred=tuple(
                (ix, w) for ix, w in constraints.preferred if ix not in banned
            ),
        )

    def _apply(self, reorg: ReorganizationResult) -> float:
        """Apply decisions through the scheduler (COLT's exact protocol)."""
        retry = self.scheduler.advance_epoch()
        build_cost = retry.charged
        for index in retry.recovered:
            self.materialized.add(index)
        for index in reorg.materialize:
            self.materialized.add(index)
        for index in reorg.drop:
            self.materialized.discard(index)
        build_cost += self.scheduler.request_materialization(reorg.materialize)
        self.scheduler.request_drop(reorg.drop)
        if self.guardrails is not None and reorg.drop:
            self.guardrails.on_drop(reorg.drop)
        queued = set(self.scheduler.pending)
        failed = [
            ix
            for ix in reorg.materialize
            if not self.catalog.is_materialized(ix) and ix not in queued
        ]
        for index in failed:
            self.materialized.discard(index)
            if self._safety_watch is not None:
                watched, baseline = self._safety_watch
                watched = [ix for ix in watched if ix != index]
                self._safety_watch = (watched, baseline) if watched else None
        reorg.build_failures = failed
        reorg.recovered_builds = list(retry.recovered)
        reorg.abandoned_builds = list(retry.abandoned)
        reorg.breaker_state = self.profiler.breaker.state.value
        return build_cost

    def _record_epoch(
        self, reorg: ReorganizationResult, probes_spent: int, build_cost: float
    ) -> None:
        self._metrics["bandit_epochs_total"].inc()
        self._metrics["bandit_materialized_indexes"].set(len(self.materialized))
        self.dashboard.record(
            requested=self.config.observe_per_epoch,
            granted=self.config.observe_per_epoch,
            spent=probes_spent,
            ratio=reorg.improvement_ratio,
            build_cost=build_cost,
            breaker_state=reorg.breaker_state,
        )
