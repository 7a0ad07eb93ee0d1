"""The Self-Organizer: reorganization and re-budgeting (§5).

At the end of each epoch the Self-Organizer:

1. folds the Profiler's epoch benefits into per-index benefit histories;
2. computes ``NetBenefit`` forecasts and solves a KNAPSACK over
   ``H ∪ M`` to pick the next materialized set;
3. promotes the most promising candidates (top cluster of a 2-means
   split over smoothed crude benefits) into the next hot set;
4. re-budgets: re-solves the knapsack under an *optimistic* view of the
   hot indexes (upper confidence bounds, crude estimates where never
   measured) and maps the improvement ratio
   ``r = NetBenefit(M') / NetBenefit(M)`` onto the next epoch's what-if
   budget -- 0 at ``r = 1``, the maximum at ``r >= knee`` (paper: 1.3).
"""

from __future__ import annotations

import dataclasses
import operator
import time
from collections import deque
from typing import Deque, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.config import ColtConfig
from repro.core.forecast import BenefitHistory, net_benefit
from repro.core.knapsack import (
    KnapsackItem,
    SelectionConstraints,
    solve_constrained,
    solve_knapsack,
)
from repro.core.profiler import EpochIndexBenefit, Profiler, _name
from repro.core.window_tuner import ForecastWindowTuner
from repro.engine.catalog import Catalog
from repro.engine.index import IndexDef
from repro.obs.names import TUNER_METRICS
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

# Composite-safe index identity: table plus ordered key columns.
IndexKey = Tuple[str, Tuple[str, ...]]


def _key(index: IndexDef) -> IndexKey:
    return index.table, index.columns


_row_name = operator.attrgetter("index.name")


class _Row:
    """One index at one epoch boundary.

    Attributes:
        index / key: The index and its bookkeeping identity.
        hot / held: Whether it was in ``H`` / in ``M`` coming in.
        size: Size in pages.
        charge: Cost side of its NetBenefit at this boundary.
        low / high: Conservative and optimistic NetBenefit, once known.
        item: Its knapsack object under the view solved last.
    """

    __slots__ = ("index", "key", "hot", "held", "size", "charge", "low", "high", "item")

    def __init__(
        self, index: IndexDef, hot: bool, held: bool, size: float, charge: float
    ) -> None:
        self.index = index
        self.key = _key(index)
        self.hot = hot
        self.held = held
        self.size = size
        self.charge = charge
        self.low = self.high = 0.0
        self.item: Optional[KnapsackItem] = None


@dataclasses.dataclass
class ReorganizationResult:
    """Decisions taken at one epoch boundary.

    Attributes:
        materialize: Indexes to add to the materialized set.
        drop: Indexes to remove from the materialized set.
        hot: The next epoch's hot set.
        whatif_budget: The next epoch's what-if budget ``#WI_lim``.
        improvement_ratio: The re-budgeting ratio ``r``.
        build_failures: Requested materializations whose build failed
            this boundary; they stay out of ``M`` (the knapsack treats
            them as unmaterialized) and retry with backoff.
        recovered_builds: Previously failed builds whose backed-off
            retry succeeded at this boundary (re-admitted to ``M``).
        abandoned_builds: Failed builds whose retry policy was exhausted
            at this boundary.
        breaker_state: The profiling circuit breaker's state after this
            boundary (``"closed"``, ``"open"`` or ``"half_open"``).
        quarantined: Indexes the guardrails quarantined at this boundary
            (filled by the tuner when a guardrail manager is attached);
            they also appear in ``drop``.
        released: Indexes the guardrails released from quarantine at
            this boundary.
    """

    materialize: List[IndexDef]
    drop: List[IndexDef]
    hot: List[IndexDef]
    whatif_budget: int
    improvement_ratio: float
    build_failures: List[IndexDef] = dataclasses.field(default_factory=list)
    recovered_builds: List[IndexDef] = dataclasses.field(default_factory=list)
    abandoned_builds: List[IndexDef] = dataclasses.field(default_factory=list)
    breaker_state: str = "closed"
    quarantined: List[IndexDef] = dataclasses.field(default_factory=list)
    released: List[IndexDef] = dataclasses.field(default_factory=list)


class SelfOrganizer:
    """Implements reorganization and re-budgeting."""

    def __init__(
        self,
        catalog: Catalog,
        config: ColtConfig,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._catalog = catalog
        self._config = config
        self.registry = registry or NULL_REGISTRY
        self._m_knapsack = TUNER_METRICS["colt_knapsack_seconds"].build(self.registry)
        self.materialized: Set[IndexDef] = set()
        self.hot: Set[IndexDef] = set()
        self._history: Dict[IndexKey, BenefitHistory] = {}
        self._high_history: Dict[IndexKey, BenefitHistory] = {}
        self._measured: Dict[IndexKey, int] = {}
        # Write-aware extension: per-table insert counts per epoch.
        self._writes: Dict[str, Deque[int]] = {}
        # Previous epoch's knapsack selections, used to
        # warm-start the next solve's branch-and-bound incumbent.
        self._warm_conservative: FrozenSet[IndexDef] = frozenset()
        self._warm_optimistic: FrozenSet[IndexDef] = frozenset()
        self._window_tuner = (
            ForecastWindowTuner(config.effective_forecast_window)
            if config.adaptive_forecast_window
            else None
        )

    # ------------------------------------------------------------------
    def end_epoch(
        self,
        report: Dict[IndexKey, EpochIndexBenefit],
        profiler: Profiler,
        inserts: Optional[Dict[str, int]] = None,
        constraints: Optional[SelectionConstraints] = None,
    ) -> ReorganizationResult:
        """Run one reorganization + re-budgeting step.

        Args:
            report: The Profiler's epoch benefit summary for ``H ∪ M``.
            profiler: The profiler (for candidate rankings; its epoch
                state must already be rolled).
            inserts: Per-table insert counts observed this epoch (the
                write-aware extension); indexes on write-hot tables get
                their forecasted maintenance cost charged against
                NetBenefit.
            constraints: Optional guardrail/DBA constraints on both
                knapsack solves: pinned indexes are forced into ``M``,
                banned ones (advice bans, quarantine, rollout staging)
                are excluded from selection and from hot promotion,
                preferred ones get their NetBenefit scaled.

        Returns:
            The decisions for the next epoch.  The caller (the tuner)
            is responsible for carrying them out via the Scheduler and
            for invalidating profiler statistics on changed tables.
        """
        self._record_histories(report)
        self._record_writes(inserts or {})
        config = self._config
        min_epochs = config.min_history_epochs
        if self._window_tuner is not None:
            horizon = self._window_tuner.window
        else:
            horizon = config.effective_forecast_window
        hot, materialized = self.hot, self.materialized
        pinned = constraints.pinned if constraints is not None else ()

        # --- The boundary table ---------------------------------------
        # One row per index of ``H ∪ M ∪ pinned``, in canonical (name)
        # order: ``hot`` and ``materialized`` are sets, and letting their
        # hash order leak into the knapsack would break run-to-run
        # reproducibility on value ties.  Everything below reads it.
        rows = [
            self._row(ix, ix in hot, horizon)
            for ix in sorted({*hot, *materialized, *pinned}, key=_name)
        ]

        # --- Reorganization: the new materialized set -----------------
        # Hot indexes become eligible for materialization only once they
        # carry enough measured history to trust the forecast.  Pinned
        # indexes always face the knapsack, history or not;
        # solve_constrained forces them in regardless of value.
        eligible: List[_Row] = []
        kept: List[_Row] = []
        forced: List[_Row] = []
        for row in rows:
            if row.hot and len(self._history.get(row.key, ())) >= min_epochs:
                eligible.append(row)
            elif row.held:
                kept.append(row)
            elif row.index in pinned:
                forced.append(row)
        pool = eligible + kept + forced
        for row in pool:
            # The optimistic view of a row that is not hot is this one.
            row.low = row.high = self._forecast(self._history, row, horizon)
            row.item = KnapsackItem(key=row.index, size=row.size, value=row.low)
        selected, chosen_value = self._solve(
            [row.item for row in pool], self._warm_conservative, constraints
        )
        self._warm_conservative = frozenset(selected)
        new_m = set(selected)
        adds: List[IndexDef] = []
        drops: List[IndexDef] = []
        for row in rows:
            if row.index in new_m:
                if not row.held:
                    adds.append(row.index)
            elif row.held:
                drops.append(row.index)

        # --- Hot set selection ----------------------------------------
        # A banned index must not be promoted hot either: profiling it
        # would spend what-if budget on an unselectable index.
        hot_exclude = new_m if constraints is None else new_m | constraints.banned
        by_index = {row.index: row for row in rows}
        new_hot = set(self._select_hot(profiler, hot_exclude, by_index))
        fresh = [self._row(ix, False, horizon) for ix in new_hot if ix not in by_index]
        if fresh:
            by_index.update((row.index, row) for row in fresh)
            rows = sorted(rows + fresh, key=_row_name)

        # --- Re-budgeting ---------------------------------------------
        # The optimistic scenario considers every row -- including hot
        # indexes not yet eligible for actual materialization -- since
        # its purpose is to decide whether profiling them is worthwhile.
        for row in rows:
            if row.hot or row.item is None:
                row.high = self._forecast(self._high_history, row, horizon)
                row.item = KnapsackItem(key=row.index, size=row.size, value=row.high)
        opt_selected, opt_value = self._solve(
            [row.item for row in rows], self._warm_optimistic, constraints
        )
        self._warm_optimistic = frozenset(opt_selected)
        ratio = self._improvement_ratio(opt_value, chosen_value)
        budget = self._budget_for(ratio)

        # Promising-but-unproven hot indexes are the reason profiling
        # exists: while any hot index with positive optimistic potential
        # still lacks the history needed for materialization eligibility,
        # keep the profiler funded so it can prove (or refute) them.
        for ix in new_hot:
            row = by_index[ix]
            if row.high > 0.0 and self._measured.get(row.key, 0) < min_epochs:
                budget = max(budget, config.max_whatif_per_epoch // 2)
                break

        # --- Adaptive forecast window (§6.2 future work) ----------------
        if self._window_tuner is not None:
            self._window_tuner.observe_epoch(adds, drops)

        # --- Commit set transitions -----------------------------------
        for ix in drops:
            self._history.pop(_key(ix), None)
            self._high_history.pop(_key(ix), None)
        self.materialized = new_m
        self.hot = new_hot

        return ReorganizationResult(
            materialize=adds,
            drop=drops,
            hot=[r.index for r in rows if r.index in new_hot],
            whatif_budget=budget,
            improvement_ratio=ratio,
        )

    # ------------------------------------------------------------------
    def _record_histories(self, report: Dict[IndexKey, EpochIndexBenefit]) -> None:
        """Fold raw epoch benefits into the histories.

        Benefits are recorded unsmoothed: the forecasting function's
        windowed means (with a minimum window, see ``repro.core.
        forecast``) absorb per-epoch Poisson arrival noise, while the
        raw window retains pre-shift memory -- the property behind the
        paper's noise resilience (a dropped distribution's indexes keep
        part of their forecast for up to ``h`` epochs).
        """
        for key, benefit in report.items():
            self._history_in(self._history, key).record(benefit.low)
            self._history_in(self._high_history, key).record(benefit.high)
            self._measured[key] = self._measured.get(key, 0) + benefit.measured

    def _history_in(
        self, histories: Dict[IndexKey, BenefitHistory], key: IndexKey
    ) -> BenefitHistory:
        history = histories.get(key)
        if history is None:
            history = histories[key] = BenefitHistory(self._config.history_epochs)
        return history

    def _row(self, index: IndexDef, hot: bool, horizon: int) -> _Row:
        """The boundary-table row for an index: its size and cost side.

        ``NetBenefit(I) = Σ_j PredBenefit_j(I) − MatCost(I)`` with
        ``MatCost = 0`` for already-materialized indexes (§5).  We take
        the formula literally: per-query benefit forecasts summed over
        the horizon against the full build cost.  This makes the build
        cost a strong hysteresis against swapping near-equal indexes in
        and out of ``M`` every epoch -- the self-correcting behaviour
        the paper describes.  ``matcost_weight`` rescales the damping
        for the ablation benches.

        Write-aware extension: indexes on tables receiving inserts are
        additionally charged their forecasted maintenance cost over the
        horizon, at the same benefit/cost exchange rate as the build
        cost.  A heavily written table must earn its indexes twice over.

        The conservative and optimistic NetBenefit share this cost side.
        """
        config = self._config
        build = self._catalog.index_build_cost(index)
        held = index in self.materialized
        if held:
            # Small retention credit: a challenger must beat the
            # incumbent by a margin, since evicting and re-adopting on
            # forecast noise costs two builds.
            mat_cost = -build * config.retention_weight
        else:
            mat_cost = build * config.matcost_weight
        maintenance = (
            self.write_rate(index.table)
            * self._catalog.params.index_maintain_cost_per_tuple
            * horizon
            * config.matcost_weight
        )
        size = self._catalog.index_size_pages(index)
        return _Row(index, hot, held, size, mat_cost + maintenance)

    @staticmethod
    def _forecast(
        histories: Dict[IndexKey, BenefitHistory], row: _Row, horizon: int
    ) -> float:
        """Forecasted NetBenefit of a row under one view of its history."""
        history = histories.get(row.key)
        values = history.values() if history is not None else []
        return net_benefit(values, horizon, row.charge)

    # ------------------------------------------------------------------
    # Write-aware extension helpers
    # ------------------------------------------------------------------
    def _record_writes(self, inserts: Dict[str, int]) -> None:
        for table in inserts:
            if table not in self._writes:
                self._writes[table] = deque(maxlen=self._config.history_epochs)
        for table, window in self._writes.items():
            window.append(inserts.get(table, 0))

    def write_rate(self, table: str) -> float:
        """Mean inserts per epoch observed for a table (memory window)."""
        window = self._writes.get(table)
        if not window:
            return 0.0
        return sum(window) / len(window)

    def _solve(
        self,
        items: List[KnapsackItem],
        warm: FrozenSet[IndexDef],
        constraints: Optional[SelectionConstraints],
    ) -> Tuple[List[IndexDef], float]:
        capacity = self._config.storage_budget_pages
        if constraints:
            # The previous selection may violate fresh constraints, so
            # the warm incumbent is not a valid lower bound here.
            started = time.perf_counter()
            selected, total = solve_constrained(items, capacity, constraints)
            self._m_knapsack.observe(time.perf_counter() - started)
            return [item.key for item in selected], total
        # Warm-start: the previous epoch's selection, re-valued under
        # this epoch's forecasts and filtered to still-viable items, is
        # a feasible solution -- a true lower bound that lets the
        # branch-and-bound prune earlier without changing its optimum.
        incumbent = 0.0
        if warm and self._config.knapsack_warm_start:
            prev = [
                it
                for it in items
                if it.key in warm
                and it.value > 0.0
                and 0.0 < it.size <= capacity
            ]
            if prev and sum(it.size for it in prev) <= capacity:
                incumbent = sum(it.value for it in prev)
        started = time.perf_counter()
        selected, total = solve_knapsack(
            items, capacity, incumbent_value=incumbent
        )
        self._m_knapsack.observe(time.perf_counter() - started)
        return [item.key for item in selected], total

    def _select_hot(
        self, profiler: Profiler, exclude: Set[IndexDef], by_index: Dict[IndexDef, _Row]
    ) -> List[IndexDef]:
        """Select the hot set from the candidates' crude benefits (§5).

        The paper groups smoothed ``BenefitC`` values into two clusters
        with minimal variance and promotes the top cluster.  We apply the
        same 2-means split twice -- once on absolute benefit and once on
        benefit *density* (benefit per page) -- and take the union: under
        a tight budget the knapsack favours dense small indexes that a
        purely absolute ranking would starve of profiling.
        """
        ranked = profiler.candidates.ranked(exclude=exclude)
        positive = [s for s in ranked if s.smoothed_benefit > 0.0]
        if not positive:
            return []

        by_benefit = positive
        split_b = two_means_split([s.smoothed_benefit for s in by_benefit])

        def density(stats) -> float:
            row = by_index.get(stats.index)
            size = row.size if row is not None else self._catalog.index_size_pages(stats.index)
            return stats.smoothed_benefit / max(1.0, size)

        scored = sorted(
            ((density(s), s) for s in positive), key=lambda ds: ds[0], reverse=True
        )
        by_density = [s for _, s in scored]
        split_d = two_means_split([d for d, _ in scored])

        promoted = []
        seen: Set[IndexKey] = set()
        for stats in by_benefit[:split_b] + by_density[:split_d]:
            key = _key(stats.index)
            if key not in seen:
                seen.add(key)
                promoted.append(stats)
        promoted.sort(key=lambda s: s.smoothed_benefit, reverse=True)
        promoted = promoted[: self._config.max_hot_size]

        # Seed optimistic histories for newly promoted candidates so
        # re-budgeting can see their potential before any what-if call.
        for stats in promoted:
            key = _key(stats.index)
            if key not in self._high_history:
                self._history_in(self._high_history, key).record(stats.smoothed_benefit)
        return [s.index for s in promoted]

    def _improvement_ratio(self, optimistic: float, current: float) -> float:
        if optimistic <= 0.0:
            return 1.0
        if current <= 0.0:
            # Nothing materialized (or nothing worth keeping) while the
            # hot set shows potential: maximal urgency.
            return self._config.rebudget_knee
        return max(1.0, optimistic / current)

    def _budget_for(self, ratio: float) -> int:
        """Linear map from the ratio to ``#WI_lim`` (0 at 1, max at knee)."""
        knee = self._config.rebudget_knee
        frac = (ratio - 1.0) / (knee - 1.0)
        frac = min(1.0, max(0.0, frac))
        return int(round(frac * self._config.max_whatif_per_epoch))


def two_means_split(values: List[float]) -> int:
    """Split a descending value list into two groups with minimal variance.

    Returns:
        The size of the top group (at least 1).  This is exact 2-means
        in one dimension: every contiguous split of the sorted list is
        scored by within-group sum of squared deviations.
    """
    if not values:
        return 0
    if len(values) == 1:
        return 1
    best_split = 1
    best_score = float("inf")
    for split in range(1, len(values)):
        top, bottom = values[:split], values[split:]
        score = _sse(top) + _sse(bottom)
        if score < best_score:
            best_score = score
            best_split = split
    return best_split


def _sse(group: List[float]) -> float:
    mean = sum(group) / len(group)
    return sum([(v - mean) ** 2 for v in group])

