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
  accumulate in ``V``; the forgetting factor re-inflates it under drift.
* **Safety fallback** -- when the observed per-query cost of the round
  following a configuration change regresses past
  ``SAFETY_FACTOR x`` the pre-change cost, the change is reverted and
  the added arms are banned for a cooldown (:class:`SafetyWatch`, a
  stage of the loop's ruling pipeline).

The bandit reads the knobs it shares with COLT (epoch clock, budget,
candidate window, build-cost weights, seed) from the same
:class:`~repro.core.config.ColtConfig`; its own values are the module
constants below.

The class is the bandit engine of the shared
:class:`~repro.core.loop.TuningLoop` (``run``/``process_query`` frame,
:class:`QueryOutcome` ledger records, :class:`ReorganizationResult` at
boundaries, ruling pipeline, scheduler protocol), so the fleet,
guardrails, CLI, and fault injection drive either engine unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.bandit.features import FEATURE_DIM, FeatureMap
from repro.bandit.linucb import RidgeModel
from repro.core.knapsack import KnapsackItem, Ruling, solve_constrained
from repro.core.loop import TuningLoop
from repro.core.profiler import ProfilerBase, _name
from repro.core.self_organizer import ReorganizationResult
from repro.obs.names import BANDIT_METRICS

if TYPE_CHECKING:
    from repro.core.config import ColtConfig
    from repro.core.knapsack import SelectionConstraints
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef
    from repro.obs.registry import MetricsRegistry
    from repro.resilience.breaker import CircuitBreaker
    from repro.sql.ast import Query

#: Exploration scale of the UCB term ``theta^T x + ALPHA * sqrt(x^T V^-1 x)``.
ALPHA = 1.0
#: Ridge regularizer (the ``lambda I`` prior on ``V``).
LAMBDA_REG = 1.0
#: Per-round decay ``gamma`` of ``V`` and ``b`` before new rewards are
#: folded in: stale rewards age out so the model tracks drift.
FORGETTING = 0.9
#: Rounds chosen without build-cost hysteresis at the start, so
#: never-played arms get built and produce reward observations.
FORCED_EXPLORATION_EPOCHS = 3
#: Reward probes per round.
OBSERVE_PER_EPOCH = 6
#: Fraction of a counterfactual execution's observed cost charged as
#: tuning overhead (physical-store runs only).
OBSERVE_COST_FACTOR = 1.0
#: A change whose next round costs more than this times the round
#: before it is reverted.
SAFETY_FACTOR = 1.5
#: Rounds a reverted arm stays banned.
SAFETY_COOLDOWN_EPOCHS = 6
#: Arms per round: ``M`` plus the best-ranked candidates.
MAX_ARMS = 24
#: The constants above under the names a bandit's snapshot and trace
#: ``config`` block stored them by when they were settable
#: (:func:`repro.core.config.stored_config` reads these).
STORED_CONSTANTS = {
    "alpha": ALPHA,
    "lambda_reg": LAMBDA_REG,
    "forgetting": FORGETTING,
    "forced_exploration_epochs": FORCED_EXPLORATION_EPOCHS,
    "observe_per_epoch": OBSERVE_PER_EPOCH,
    "observe_cost_factor": OBSERVE_COST_FACTOR,
    "safety_factor": SAFETY_FACTOR,
    "safety_cooldown_epochs": SAFETY_COOLDOWN_EPOCHS,
    "max_arms": MAX_ARMS,
}


class BanditProfile(ProfilerBase):
    """The bandit's stand-in for COLT's :class:`Profiler`.

    Carries the shared ``tuner.profiler`` surface -- a live circuit
    breaker (reward probes run behind it), the candidate tracker, and a
    disabled gain-cache rule -- and nothing else.  What-if budgeting is
    inert: the bandit spends a fixed observation budget per round, not
    COLT's adaptive ``#WI_lim``.
    """

    def __init__(
        self,
        catalog: Catalog,
        config: ColtConfig,
        breaker: Optional[CircuitBreaker] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(catalog, config, breaker, registry, gain_cache=False)


class SafetyWatch:
    """The bandit's safety fallback: one stage of the close's rulings.

    After a boundary builds arms, the watch holds them against that
    round's mean observed per-query cost (the bandit's epoch evidence).
    When the next round costs more than :data:`SAFETY_FACTOR` times
    that, the built arms still in ``M`` are banned for
    :data:`SAFETY_COOLDOWN_EPOCHS` closes -- the knapsack drops them,
    reverting the change.  ``trips`` counts the reversions.

    Attributes:
        watch: ``(arms built, baseline cost)`` awaiting judgement.
        bans: Live bans, ``index -> closes left``.
    """

    def __init__(self, trips) -> None:
        self.watch: Optional[Tuple[List[IndexDef], float]] = None
        self.bans: Dict[IndexDef, int] = {}
        self._trips = trips
        self._cost = 0.0

    def rulings(self, epoch: int, mean_cost: float, materialized) -> Tuple[Ruling, ...]:
        """Age the bans, judge the watched change, rule the live bans."""
        self._cost = mean_cost
        self.bans = {ix: left - 1 for ix, left in self.bans.items() if left > 1}
        if self.watch is not None:
            added, baseline = self.watch
            self.watch = None
            tripped = [ix for ix in added if ix in materialized]
            if baseline > 0.0 and mean_cost > SAFETY_FACTOR * baseline and tripped:
                for index in tripped:
                    self.bans[index] = SAFETY_COOLDOWN_EPOCHS
                self._trips.inc()
        return tuple(
            Ruling(ix, "ban", "safety", reason="regressed", until=epoch + left)
            for ix, left in self.bans.items()
        )

    def applied(self, reorg: ReorganizationResult) -> None:
        """Watch the arms this boundary actually built."""
        added = [ix for ix in reorg.materialize if ix not in reorg.build_failures]
        self.watch = (added, self._cost) if added and self._cost > 0.0 else None


class BanditTuner(TuningLoop):
    """On-line index tuning by contextual combinatorial UCB.

    The bandit engine of the shared :class:`~repro.core.loop.TuningLoop`
    (which documents the constructor arguments -- the same construction
    surface as :class:`~repro.core.colt.ColtTuner`, so every harness can
    swap engines): queries are observed through counterfactual reward
    probes, and epochs are closed by a ridge-model update followed by
    super-arm selection on the shared knapsack.

    Args:
        config: The shared tuning parameters (:class:`ColtConfig`);
            the bandit reads the epoch clock, storage budget, candidate
            window, build-cost weights, hot-set cap, probe charge and
            seed.  Its budget must be positive and its hot-set cap at
            least 1.
        store: Optional physical store.  When given, rewards are priced
            from real executions on a :class:`CountingStore`; without
            one, optimizer plan costs stand in (still *post-decision*
            costs, never what-if forecasts of unbuilt indexes).
        breaker: Circuit breaker guarding reward probes.
    """

    engine_name = "bandit"
    budget_label = "observation"

    def _build_engine(self, breaker: Optional[CircuitBreaker]) -> None:
        if self.config.storage_budget_pages <= 0.0:
            raise ValueError("storage_budget_pages must be positive")
        if self.config.max_hot_size < 1:
            raise ValueError("max_hot_size must be positive")
        self.profiler = BanditProfile(
            self.catalog, self.config, breaker=breaker, registry=self.registry
        )
        store = self._store
        self._counting = None
        if store is not None:
            # The executor loads only for a tuner that prices real runs.
            from repro.executor.instrument import CountingStore

            self._counting = CountingStore(store)
        self.model = RidgeModel(FEATURE_DIM, lambda_reg=LAMBDA_REG, forgetting=FORGETTING)
        self.features = FeatureMap(self.catalog, self.config.storage_budget_pages)
        self.materialized = set(self.catalog.materialized_indexes())
        self.hot: List[IndexDef] = []
        self._epochs_closed = 0
        # Per-round reward bookkeeping.
        self._epoch_rewards: Dict[IndexDef, List[float]] = {}
        self._epoch_uses: Dict[IndexDef, int] = {}
        self._epoch_observed_cost = 0.0
        self._epoch_probes = 0
        self._prev_solution_value = 0.0
        self._metrics = {
            name: spec.build(self.registry) for name, spec in BANDIT_METRICS.items()
        }
        self.safety = SafetyWatch(self._metrics["bandit_safety_fallbacks_total"])
        self._counted = 0  # read by its family, as in ColtTuner
        self._metrics["bandit_queries_total"].set_function(lambda: self._counted or None)

    @property
    def epochs_closed(self) -> int:
        """Decision rounds completed so far."""
        return self._epochs_closed

    # ------------------------------------------------------------------
    def _observe_query(self, query: Query, session) -> Tuple[int, float]:
        """Record arm usage and sample counterfactual rewards."""
        self.profiler.breaker.tick()
        self.features.note_query(query.tables)
        used = session.base.indexes_used
        self.profiler.candidates.observe_query(
            query, used, self.materialized, session.cache
        )
        base_observed = self._price_base(session)
        self._epoch_observed_cost += base_observed
        return self._observe_rewards(session, used, base_observed)

    def _count_query(self, session, calls: int, overhead: float) -> None:
        self._counted += 1

    def _note_insert(self, table: str, n: int) -> None:
        # The write-pressure feature is how the bandit learns to retire
        # indexes on write-hot tables.
        self.features.note_insert(table, n)

    def _epoch_budget(self) -> Tuple[int, int, int]:
        # A fixed observation budget per round, not an adaptive #WI_lim.
        return OBSERVE_PER_EPOCH, OBSERVE_PER_EPOCH, self._epoch_probes

    # ------------------------------------------------------------------
    # reward observation
    def _price_base(self, session) -> float:
        """Observed cost of the query as it actually ran."""
        if self._counting is None:
            return session.base.cost
        return self._counting.observed_cost(session.base.plan)

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
        mat = self.materialized  # read only; one frozen copy per probe below
        for index in sorted(used, key=_name):
            if index not in mat:
                continue
            self._epoch_uses[index] = self._epoch_uses.get(index, 0) + 1
            if self._epoch_probes >= OBSERVE_PER_EPOCH:
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
                    session.query, config=without_config, cache=session.cache
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
                without_observed = self._counting.observed_cost(without.plan)
                reward = without_observed - base_observed
                probe_charge += OBSERVE_COST_FACTOR * without_observed
            else:
                reward = without.cost - session.base.cost
            charge += probe_charge
            self._epoch_rewards.setdefault(index, []).append(reward)
        return calls, charge

    # ------------------------------------------------------------------
    # decision rounds
    def _digest_epoch(self) -> float:
        """Update the model from the round's rewards.

        Returns:
            The round's mean observed per-query cost.
        """
        epoch_length = self.config.epoch_length
        mean_cost = self._epoch_observed_cost / epoch_length

        # 1. Learn: fold the round's reward evidence into the model.
        self.model.decay()
        for index in sorted(self.materialized, key=_name):
            samples = self._epoch_rewards.get(index)
            uses = self._epoch_uses.get(index, 0)
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

        # 2. Roll workload state into the next round.
        self.profiler.candidates.roll_epoch(epoch_length)
        self.features.roll_epoch(epoch_length)
        self._epoch_rewards = {}
        self._epoch_uses = {}
        self._epoch_observed_cost = 0.0
        self._epoch_probes = 0
        return mean_cost

    def _decide(
        self, mean_cost: float, constraints: SelectionConstraints
    ) -> ReorganizationResult:
        """Pick the super-arm under the storage budget."""
        reorg = self._select(constraints)
        self._epochs_closed += 1
        return reorg

    def _arm_pool(self) -> List[IndexDef]:
        """Arms for this round: ``M`` plus the best-ranked candidates."""
        pool = sorted(self.materialized, key=_name)
        budget = MAX_ARMS - len(pool)
        for stats in self.profiler.candidates.ranked(exclude=pool):
            if budget <= 0:
                break
            pool.append(stats.index)
            budget -= 1
        return pool

    def _select(self, constraints: SelectionConstraints) -> ReorganizationResult:
        forced = self._epochs_closed < FORCED_EXPLORATION_EPOCHS
        epoch_length = self.config.epoch_length

        pool = self._arm_pool()
        # Advice-pinned indexes must be selectable even when never mined.
        present = set(pool)
        for index in sorted(constraints.pinned, key=_name):
            if index not in present:
                pool.append(index)
                present.add(index)
        items: List[KnapsackItem] = []
        scores: Dict[IndexDef, float] = {}
        # One pass over the arms, its invariants bound once per close
        # (per close, not per tuner: a restore replaces ``self.model``).
        config, materialized = self.config, self.materialized
        tracker = self.profiler.candidates
        vector, width_of, mean_of = self.features.vector, self.model.width, self.model.mean
        costing_of = self.catalog.index_costing  # (rows, params, size, build)
        retention, matcost = config.retention_weight, config.matcost_weight
        for index in pool:
            x = vector(index, tracker, materialized)
            width = width_of(x)
            optimistic = mean_of(x) + ALPHA * width
            value = optimistic * epoch_length
            costing = costing_of(index)
            if not forced:
                if index not in materialized:
                    value -= matcost * costing[3]
                elif optimistic > 0.0:
                    # Anti-thrash margin -- but never life support: an
                    # arm whose optimistic estimate has gone non-positive
                    # earns no retention credit and falls out.
                    value += retention * costing[3]
            scores[index] = optimistic
            items.append(KnapsackItem(index, costing[2], value))

        selected, total_value = solve_constrained(
            items, self.config.storage_budget_pages, constraints
        )
        target = {it.key for it in selected}
        materialize = sorted(
            (ix for ix in target if ix not in self.materialized), key=_name
        )
        drop = sorted(
            (ix for ix in self.materialized if ix not in target), key=_name
        )
        self.hot = sorted(
            (ix for ix in pool if ix not in target and scores[ix] > 0.0),
            key=lambda ix: (-scores[ix], ix.name),
        )[: self.config.max_hot_size]

        prev = self._prev_solution_value
        ratio = total_value / prev if prev > 1e-9 else 1.0
        self._prev_solution_value = max(total_value, 0.0)
        self.materialized.update(materialize)
        self.materialized.difference_update(drop)
        return ReorganizationResult(
            materialize=materialize,
            drop=drop,
            hot=list(self.hot),
            whatif_budget=0,
            improvement_ratio=ratio,
        )

    def _applied(self, reorg: ReorganizationResult, changed: bool) -> None:
        # Nothing to react to: the safety stage watches what was built.
        pass
