"""Candidate index mining and crude benefit tracking (the set ``C``).

COLT mines candidates from the selection predicates of queries in the
memory window ``S_h`` and maintains, per candidate, a sliding window of
per-epoch crude benefits ``BenefitC`` computed with standard cost
formulas (no optimizer calls).  The crude benefits rank candidates for
promotion into the hot set.
"""

from __future__ import annotations

import operator
from collections import deque
from typing import (
    TYPE_CHECKING,
    Container,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.optimizer.access import crude_index_delta_cost
from repro.optimizer.optimizer import PlanCache
from repro.sql.ast import CompareOp, ComparisonPredicate, InPredicate

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef
    from repro.sql.ast import Query


class CandidateStats:
    """Sliding-window crude benefit statistics for one candidate index."""

    __slots__ = ("index", "epoch_gain", "_window", "_idle", "_smoothed", "_smoothing")

    def __init__(self, index: IndexDef, history_epochs: int, smoothing: float) -> None:
        self.index = index
        self.epoch_gain = 0.0
        self._window: Deque[float] = deque(maxlen=history_epochs)
        self._idle = 0  # newest window entries in a row without benefit
        self._smoothed: Optional[float] = None
        self._smoothing = smoothing

    def add_gain(self, gain: float) -> None:
        """Accumulate one query's crude gain into the current epoch."""
        self.epoch_gain += gain

    def load(self, window: Iterable[float], smoothed: float) -> None:
        """Adopt a recorded window (oldest first) and smoothed benefit."""
        for benefit in window:
            self._window.append(benefit)
            self._idle = self._idle + 1 if benefit <= 0.0 else 0
        self._smoothed = smoothed

    @property
    def smoothed_benefit(self) -> float:
        """Exponentially smoothed ``BenefitC`` (0 before any epoch)."""
        return self._smoothed or 0.0

    def window_total(self) -> float:
        """Sum of windowed per-epoch benefits (recency-unweighted)."""
        return sum(self._window)


_smoothed_benefit = operator.attrgetter("smoothed_benefit")


class CandidateTracker:
    """Mines and scores the candidate set ``C``.

    With ``composite`` enabled (an extension beyond the paper, which
    restricts itself to single-column indexes), queries carrying several
    predicates on one table also mine two-column candidates: an
    equality-predicate column leading, any other filtered column
    trailing -- the composite shapes a B+tree can actually exploit.
    """

    def __init__(
        self,
        catalog: Catalog,
        history_epochs: int,
        smoothing: float,
        composite: bool = False,
    ) -> None:
        self._catalog = catalog
        self._history = history_epochs
        self._smoothing = smoothing
        self._composite = composite
        self._stats: Dict[IndexDef, CandidateStats] = {}

    def __len__(self) -> int:
        return len(self._stats)

    def candidates(self) -> List[IndexDef]:
        """The current candidate set ``C``."""
        return [s.index for s in self._stats.values()]

    def stats_for(self, index: IndexDef) -> Optional[CandidateStats]:
        """Stats for one candidate, if it has been mined."""
        return self._stats.get(index)

    def observe_query(
        self,
        query: Query,
        used_indexes: Container[IndexDef],
        materialized: Container[IndexDef],
        cache: Optional[PlanCache] = None,
    ) -> List[Tuple[IndexDef, float]]:
        """Mine candidates from a query and update their crude benefits.

        Implements lines 13-14 of the profiling algorithm:
        ``QueryGain_C(q, I) = u_{q,I} * Δcost(R, σ, I)``.  The indicator
        ``u`` is read off the actual plan for materialized indexes and
        optimistically set to 1 otherwise.

        Args:
            query: The current (bound) query.
            used_indexes: Indexes appearing in the query's chosen plan
                (only membership is read).
            materialized: The current materialized set (likewise).
            cache: The plan cache of the query's what-if session, whose
                sequential-scan baselines price every mined index.

        Returns:
            The (candidate, gain) pairs credited for this query.
        """
        credited: List[Tuple[IndexDef, float]] = []
        for index, crude in self._mined_with_crude(query, cache or PlanCache()):
            stats = self._stats.get(index)
            if stats is None:
                stats = CandidateStats(index, self._history, self._smoothing)
                self._stats[index] = stats
            if index in materialized and index not in used_indexes:
                u = 0.0  # the optimizer had it and chose not to use it
            else:
                u = 1.0  # optimistic prediction, per the paper
            gain = u * crude
            stats.add_gain(gain)
            credited.append((index, gain))
        return credited

    def _mined_with_crude(self, query: Query, cache: PlanCache) -> List[Tuple[IndexDef, float]]:
        """``(candidate, crude delta cost)`` pairs for one query.

        Mining is a pure function of the query and this tracker's
        ``composite`` setting, ``crude_index_delta_cost`` of those and the
        statistics, so both are kept in ``cache`` under that setting: a
        backend that retains the cache across sightings of one query
        object serves them again, and one that re-prices it after a row
        move prices the mined indexes again.  The ``u`` indicator is
        applied by the caller, outside the memo.  Every index mined on a
        table is priced against that table's one baseline in ``cache``,
        from the one index cost the plans priced under the same row count.
        """
        composite = self._composite
        held = cache.crude
        if held is None:
            held = cache.crude = [None, None]
        pairs = held[composite]
        if pairs is None:
            mined = cache.mined
            if mined is None:
                mined = cache.mined = [None, None]
            indexes = mined[composite]
            if indexes is None:
                indexes = mined[composite] = self._mined_indexes(query)
            pairs = []
            for index in indexes:
                scan = cache.scan(self._catalog, query, index.table)
                crude = crude_index_delta_cost(self._catalog, index, scan.filters, scan)
                pairs.append((index, crude))
            held[composite] = pairs
        return pairs

    def _mined_indexes(self, query: Query) -> List[IndexDef]:
        """Candidate indexes this query suggests (singles, then pairs)."""
        singles: List[Tuple[str, str]] = []
        eq_columns: Dict[str, List[str]] = {}
        for pred in query.filters:
            table = pred.column.table
            column = pred.column.column
            if not self._catalog.table(table).column(column).indexable:
                continue
            if (table, column) not in singles:
                singles.append((table, column))
            is_eq = (
                isinstance(pred, ComparisonPredicate) and pred.op is CompareOp.EQ
            ) or isinstance(pred, InPredicate)
            if is_eq and column not in eq_columns.setdefault(table, []):
                eq_columns[table].append(column)

        mined = [self._catalog.index_for(t, c) for t, c in singles]
        if self._composite:
            per_table: Dict[str, List[str]] = {}
            for table, column in singles:
                per_table.setdefault(table, []).append(column)
            for table, columns in per_table.items():
                if len(columns) < 2:
                    continue
                for lead in eq_columns.get(table, []):
                    for trail in columns:
                        if trail != lead:
                            mined.append(
                                self._catalog.composite_index_for(
                                    table, [lead, trail]
                                )
                            )
        return mined

    def roll_epoch(self, epoch_length: int) -> None:
        """Close the epoch on every candidate; evict stale ones.

        A candidate whose crude benefit has been zero for the entire
        memory window corresponds to predicates no longer present in
        ``S_h`` and is dropped from ``C``.
        """
        dead = []
        # One loop over the candidates' own fields, no call per candidate:
        # every one of them passes here at every boundary.
        for index, stats in self._stats.items():
            # Push the per-query average into the window.
            benefit = stats.epoch_gain / epoch_length
            stats.epoch_gain = 0.0
            window = stats._window
            window.append(benefit)
            if stats._smoothed is None:
                stats._smoothed = benefit
            else:
                a = stats._smoothing
                stats._smoothed = a * benefit + (1.0 - a) * stats._smoothed
            stats._idle = idle = stats._idle + 1 if benefit <= 0.0 else 0
            if idle >= window.maxlen:  # no benefit across the whole window
                dead.append(index)
        for index in dead:
            del self._stats[index]

    def seed(self, indexes: Iterable[IndexDef]) -> int:
        """Ensure tracker entries exist for externally suggested indexes.

        ``TuningLoop.push_rulings`` seeds the indexes of a caller's
        pushed ``"prefer"`` rulings here, so the profiler can start
        crediting gains immediately instead of waiting for the miner to
        discover them.  Seeding only creates the entry -- no benefit is
        invented, so an unused seed decays out through the
        normal stale-eviction window.  Indexes are inserted in sorted
        order so the pool's tie-break order stays deterministic across
        processes.

        Returns:
            The number of new entries created.
        """
        created = 0
        for index in sorted(indexes, key=str):
            if index not in self._stats:
                self._stats[index] = CandidateStats(
                    index, self._history, self._smoothing
                )
                created += 1
        return created

    def ranked(self, exclude: Iterable[IndexDef] = ()) -> List[CandidateStats]:
        """Candidates by descending smoothed benefit, minus exclusions."""
        excluded = set(exclude)
        pool = [s for index, s in self._stats.items() if index not in excluded]
        return sorted(pool, key=_smoothed_benefit, reverse=True)
