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
from collections import deque
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.candidates import _smoothed_benefit
from repro.core.forecast import BenefitHistory
from repro.core.knapsack import (  # solve_knapsack: perf/layers.py patches it here
    UNCONSTRAINED,
    KnapsackItem,
    solve_constrained,
    solve_knapsack,  # noqa: F401
)
from repro.core.profiler import _name
from repro.core.window_tuner import ForecastWindowTuner

if TYPE_CHECKING:
    from repro.core.config import ColtConfig
    from repro.core.knapsack import Ruling, SelectionConstraints
    from repro.core.profiler import Profiler
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef

_record_name = operator.attrgetter("index.name")
_first = operator.itemgetter(0)


def _net_benefit(history: Optional[BenefitHistory], horizon: int, charge: float) -> float:
    """Forecasted NetBenefit under one view of an index's history: the
    summed forecast (``0.0`` with no history) minus the cost side."""
    if history is None:
        return 0.0 - charge
    return history.predicted_total(horizon) - charge


class IndexRecord:
    """Everything the Self-Organizer keeps about one tracked index.

    A record is created the first time an index enters ``H ∪ M`` (or is
    pinned, or promoted) and outlives the boundary: windows, sample
    count and costing carry from close to close, the per-boundary
    columns are overwritten at each one -- the record *is* the index's
    row of the boundary table.

    Attributes:
        index / table: The index and its table definition (whose row
            count validates ``costing``).
        low / high: Conservative and optimistic per-epoch benefit
            windows; None while the index has none (never reported or
            promoted, or dropped from ``M`` since).
        measured: What-if samples reported so far; None before the first
            report (a drop does not forget it).
        costing: The catalog's ``(row_count, params, size pages, build
            cost)`` for the index as last read.
        epoch: The closing epoch's ``(low, high, measured)``, written by
            :meth:`Profiler.end_epoch`: conservative and optimistic
            per-query benefit (``Benefit_H`` / ``Benefit_M``; upper CI
            bounds, the crude estimate where never measured) and the
            number of what-if measurements behind them.
        hot / held: Whether it was in ``H`` / in ``M`` coming in.
        charge: Cost side of its NetBenefit at this boundary.
        item: Its knapsack object under the view solved last (its value
            is the NetBenefit under that view).
    """

    __slots__ = (
        "index", "table", "low", "high", "measured", "costing",
        "epoch", "hot", "held", "charge", "item",
    )

    def __init__(self, index: IndexDef, catalog: Catalog) -> None:
        self.index = index
        self.table = catalog.table(index.table)
        self.low: Optional[BenefitHistory] = None
        self.high: Optional[BenefitHistory] = None
        self.measured: Optional[int] = None
        self.costing = catalog.index_costing(index)
        self.epoch: Tuple[float, float, int] = (0.0, 0.0, 0)
        self.hot = self.held = False
        self.charge = 0.0
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
        rulings: Every stage's rulings the selection was made under, in
            stage order (see :meth:`repro.core.loop.TuningLoop._end_epoch`).
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
    rulings: Tuple[Ruling, ...] = ()


class SelfOrganizer:
    """Implements reorganization and re-budgeting."""

    def __init__(self, catalog: Catalog, config: ColtConfig) -> None:
        self._catalog = catalog
        self._config = config
        self.materialized: Set[IndexDef] = set()
        self.hot: Set[IndexDef] = set()
        # One record per index ever tracked, and the boundary table: the
        # records of ``H ∪ M`` in name order, held beside frozen copies
        # of the two sets it was built from.
        self._records: Dict[IndexDef, IndexRecord] = {}
        self._tracked: List[IndexRecord] = []
        self._tracked_sets: Tuple[FrozenSet[IndexDef], ...] = (frozenset(), frozenset())
        # Write-aware extension: per-table insert counts per epoch.
        self._writes: Dict[str, Deque[int]] = {}
        self._window_tuner = (
            ForecastWindowTuner(config.effective_forecast_window)
            if config.adaptive_forecast_window
            else None
        )

    # ------------------------------------------------------------------
    def record(self, index: IndexDef) -> IndexRecord:
        """The index's record, created on first sight."""
        rec = self._records.get(index)
        if rec is None:
            rec = self._records[index] = IndexRecord(index, self._catalog)
        return rec

    def records(self) -> Iterable[IndexRecord]:
        """Every record, in order of first sight."""
        return self._records.values()

    def tracked(self) -> List[IndexRecord]:
        """The records of ``H ∪ M`` in canonical (name) order.

        ``hot`` and ``materialized`` are sets, and letting their hash
        order leak into the knapsack would break run-to-run
        reproducibility on value ties.  Most boundaries move neither
        set, so the list is kept and rebuilt only when one of them no
        longer equals the copy it was built from (compared by content:
        their owners rebind and mutate the live sets).
        """
        hot, materialized = self.hot, self.materialized
        built_hot, built_m = self._tracked_sets
        if hot != built_hot or materialized != built_m:
            for rec in self._tracked:  # only a listed record is ever flagged
                rec.hot = rec.held = False
            self._tracked_sets = (frozenset(hot), frozenset(materialized))
            self._tracked = [
                self.record(ix) for ix in sorted({*hot, *materialized}, key=_name)
            ]
            for rec in self._tracked:
                rec.hot = rec.index in hot
                rec.held = rec.index in materialized
        return self._tracked

    def end_epoch(
        self,
        tracked: List[IndexRecord],
        profiler: Profiler,
        inserts: Optional[Dict[str, int]] = None,
        constraints: SelectionConstraints = UNCONSTRAINED,
    ) -> ReorganizationResult:
        """Run one reorganization + re-budgeting step.

        Args:
            tracked: :meth:`tracked`, each record's ``epoch`` holding
                the Profiler's benefit summary of the closing epoch.
            profiler: The profiler (for candidate rankings; its epoch
                state must already be rolled).
            inserts: Per-table insert counts observed this epoch (the
                write-aware extension); indexes on write-hot tables get
                their forecasted maintenance cost charged against
                NetBenefit.
            constraints: The close's merged rulings, on both knapsack
                solves: pinned indexes are forced into ``M``, banned
                ones are excluded from selection and from hot
                promotion, preferred ones get their NetBenefit scaled.

        Returns:
            The decisions for the next epoch.  The caller (the tuner)
            is responsible for carrying them out via the Scheduler and
            for invalidating profiler statistics on changed tables.
        """
        self._record_histories(tracked)
        self._record_writes(inserts or {})
        config = self._config
        min_epochs = config.min_history_epochs
        if self._window_tuner is not None:
            horizon = self._window_tuner.window
        else:
            horizon = config.effective_forecast_window
        params = self._catalog.params
        pinned = constraints.pinned

        # --- The boundary table ---------------------------------------
        # The tracked records plus those of pinned indexes outside
        # ``H ∪ M``, in name order.  Everything below reads it.
        rows = tracked
        if pinned:
            extra = [
                rec
                for rec in map(self.record, sorted(pinned, key=_name))
                if rec not in tracked
            ]
            if extra:
                rows = sorted(tracked + extra, key=_record_name)

        # --- Reorganization: the new materialized set -----------------
        # Hot indexes become eligible for materialization only once they
        # carry enough measured history to trust the forecast.  Pinned
        # indexes always face the knapsack, history or not;
        # solve_constrained forces them in regardless of value.
        eligible: List[IndexRecord] = []
        kept: List[IndexRecord] = []
        forced: List[IndexRecord] = []
        for rec in rows:
            self._cost_side(rec, horizon, params)
            if rec.hot and rec.low is not None and len(rec.low) >= min_epochs:
                eligible.append(rec)
            elif rec.held:
                kept.append(rec)
            elif pinned and rec.index in pinned:
                forced.append(rec)
        pool = eligible + kept + forced
        for rec in pool:
            # The optimistic view of a row that is not hot is this one.
            rec.item = KnapsackItem(
                rec.index, rec.costing[2], _net_benefit(rec.low, horizon, rec.charge)
            )
        selected, chosen_value = self._solve([rec.item for rec in pool], constraints)
        new_m = set(selected)
        adds: List[IndexDef] = []
        dropped: List[IndexRecord] = []
        for rec in rows:
            if rec.index in new_m:
                if not rec.held:
                    adds.append(rec.index)
            elif rec.held:
                dropped.append(rec)
        drops = [rec.index for rec in dropped]

        # --- Hot set selection ----------------------------------------
        # A banned index must not be promoted hot either: profiling it
        # would spend what-if budget on an unselectable index.
        promoted = self._select_hot(profiler, new_m | constraints.banned)
        new_hot = {rec.index for rec in promoted}
        fresh = [rec for rec in promoted if rec not in rows]
        if fresh:
            for rec in fresh:
                self._cost_side(rec, horizon, params)
            rows = sorted(rows + fresh, key=_record_name)

        # --- Re-budgeting ---------------------------------------------
        # The optimistic scenario considers every row -- including hot
        # indexes not yet eligible for actual materialization -- since
        # its purpose is to decide whether profiling them is worthwhile.
        for rec in rows:
            if rec.hot or rec.item is None:
                rec.item = KnapsackItem(
                    rec.index, rec.costing[2], _net_benefit(rec.high, horizon, rec.charge)
                )
        _, opt_value = self._solve([rec.item for rec in rows], constraints)
        ratio = self._improvement_ratio(opt_value, chosen_value)
        budget = self._budget_for(ratio)

        # Promising-but-unproven hot indexes are the reason profiling
        # exists: while any hot index with positive optimistic potential
        # still lacks the history needed for materialization eligibility,
        # keep the profiler funded so it can prove (or refute) them.
        for rec in promoted:
            if rec.item.value > 0.0 and (rec.measured or 0) < min_epochs:
                budget = max(budget, config.max_whatif_per_epoch // 2)
                break

        # --- Adaptive forecast window (§6.2 future work) ----------------
        if self._window_tuner is not None:
            self._window_tuner.observe_epoch(adds, drops)

        # --- Commit set transitions -----------------------------------
        for rec in dropped:
            rec.low = rec.high = None
        self.materialized = new_m
        self.hot = new_hot

        return ReorganizationResult(
            materialize=adds,
            drop=drops,
            hot=[rec.index for rec in rows if rec.index in new_hot],
            whatif_budget=budget,
            improvement_ratio=ratio,
        )

    # ------------------------------------------------------------------
    def _record_histories(self, tracked: List[IndexRecord]) -> None:
        """Fold raw epoch benefits into the histories.

        Benefits are recorded unsmoothed: the forecasting function's
        windowed means (with a minimum window, see ``repro.core.
        forecast``) absorb per-epoch Poisson arrival noise, while the
        raw window retains pre-shift memory -- the property behind the
        paper's noise resilience (a dropped distribution's indexes keep
        part of their forecast for up to ``h`` epochs).
        """
        h = self._config.history_epochs
        for rec in tracked:
            low, high, measured = rec.epoch
            if rec.low is None:
                rec.low = BenefitHistory(h)
            rec.low.record(low)
            if rec.high is None:
                rec.high = BenefitHistory(h)
            rec.high.record(high)
            rec.measured = (rec.measured or 0) + measured

    def _cost_side(self, rec: IndexRecord, horizon: int, params) -> None:
        """Open a record's row at this boundary: its cost side.

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
        Size and build cost are read from the catalog again only once
        the table's row count (or the cost parameters) moved.
        """
        config = self._config
        costing = rec.costing
        if costing[0] != rec.table.row_count or costing[1] is not params:
            costing = rec.costing = self._catalog.index_costing(rec.index)
        if rec.held:
            # Small retention credit: a challenger must beat the
            # incumbent by a margin, since evicting and re-adopting on
            # forecast noise costs two builds.
            mat_cost = -costing[3] * config.retention_weight
        else:
            mat_cost = costing[3] * config.matcost_weight
        maintenance = (
            (self.write_rate(rec.index.table) if self._writes else 0.0)
            * params.index_maintain_cost_per_tuple
            * horizon
            * config.matcost_weight
        )
        rec.charge = mat_cost + maintenance
        rec.item = None

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
        constraints: SelectionConstraints,
    ) -> Tuple[List[IndexDef], float]:
        selected, total = solve_constrained(
            items, self._config.storage_budget_pages, constraints
        )
        return [item.key for item in selected], total

    def _select_hot(
        self, profiler: Profiler, exclude: Set[IndexDef]
    ) -> List[IndexRecord]:
        """Select the hot set from the candidates' crude benefits (§5).

        The paper groups smoothed ``BenefitC`` values into two clusters
        with minimal variance and promotes the top cluster.  We apply the
        same 2-means split twice -- once on absolute benefit and once on
        benefit *density* (benefit per page) -- and take the union: under
        a tight budget the knapsack favours dense small indexes that a
        purely absolute ranking would starve of profiling.

        Returns:
            The promoted indexes' records, by descending benefit.
        """
        ranked = profiler.candidates.ranked(exclude=exclude)
        positive = [s for s in ranked if s.smoothed_benefit > 0.0]
        if not positive:
            return []

        split_b = two_means_split([s.smoothed_benefit for s in positive])
        size_of = self._catalog.index_size_pages
        scored = sorted(
            ((s.smoothed_benefit / max(1.0, size_of(s.index)), s) for s in positive),
            key=_first,
            reverse=True,
        )
        split_d = two_means_split([d for d, _ in scored])

        promoted = positive[:split_b]
        for _, stats in scored[:split_d]:
            if stats not in promoted:  # one stats object per candidate
                promoted.append(stats)
        promoted.sort(key=_smoothed_benefit, reverse=True)

        # Seed optimistic histories for newly promoted candidates so
        # re-budgeting can see their potential before any what-if call.
        records = []
        for stats in promoted[: self._config.max_hot_size]:
            rec = self.record(stats.index)
            if rec.high is None:
                rec.high = BenefitHistory(self._config.history_epochs)
                rec.high.record(stats.smoothed_benefit)
            records.append(rec)
        return records

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
        # A sum of squares is never negative: once the top group alone
        # reaches the best score, the bottom group cannot bring the split
        # below it (NaN and inf compare as their sum would).
        score = _sse(values[:split])
        if score < best_score:
            score += _sse(values[split:])
            if score < best_score:
                best_score = score
                best_split = split
    return best_split


def _sse(group: List[float]) -> float:
    mean = sum(group) / len(group)
    return sum([(v - mean) ** 2 for v in group])

