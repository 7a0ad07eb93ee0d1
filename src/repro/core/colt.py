"""The COLT tuner: the paper's engine of the shared tuning loop.

:class:`~repro.core.loop.TuningLoop` owns the per-query frame and the
epoch clock; :class:`ColtTuner` plugs the Profiler (how a query is
observed) and the Self-Organizer (how an epoch closes) into it.  The
per-query entry point is still :meth:`ColtTuner.process_query`, and the
returned :class:`QueryOutcome` is the simulation's ledger record: the
query's execution cost under the configuration in force, plus the
on-line tuning overheads attributable to it (what-if calls this query,
index builds triggered at an epoch boundary it closed).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

from repro.core.loop import InsertOutcome, QueryOutcome, TuningLoop
from repro.core.profiler import Profiler
from repro.core.self_organizer import SelfOrganizer
from repro.obs.names import TUNER_METRICS

if TYPE_CHECKING:
    from repro.core.knapsack import SelectionConstraints
    from repro.core.self_organizer import ReorganizationResult
    from repro.engine.index import IndexDef
    from repro.resilience.breaker import CircuitBreaker
    from repro.sql.ast import Query

__all__ = ["ColtTuner", "InsertOutcome", "QueryOutcome"]


class ColtTuner(TuningLoop):
    """Continuous on-line index tuning over a catalog.

    The COLT engine of the shared :class:`~repro.core.loop.TuningLoop`
    (which documents the constructor arguments): queries are observed by
    the two-level :class:`~repro.core.profiler.Profiler` within the
    self-regulated what-if budget ``#WI_lim``, and epochs are closed by
    the :class:`~repro.core.self_organizer.SelfOrganizer` (forecast,
    knapsack, hot-set promotion, re-budgeting).

    Args:
        config: Tuning parameters (:class:`~repro.core.config.ColtConfig`;
            defaults follow the paper).
    """

    engine_name = "colt"
    budget_label = "what-if"

    def _build_engine(self, breaker: Optional[CircuitBreaker]) -> None:
        self.profiler = Profiler(
            self.catalog, self.whatif, self.config, breaker=breaker, registry=self.registry
        )
        self.self_organizer = SelfOrganizer(self.catalog, self.config)
        self._epoch_inserts: Dict[str, int] = {}
        # Per-query totals are plain adds (_count_query); their families
        # read them when read, a sample appearing with the first counted
        # query as ever.  (``queries_seen`` and ``whatif.call_count`` also
        # move for an arrival that raised, which these never counted.)
        self._counted = self._whatif_calls = 0
        self._whatif_overhead = self._execution_cost = 0.0

        def reads(family: str, total: str) -> None:
            TUNER_METRICS[family].build(self.registry).set_function(
                lambda: getattr(self, total) if self._counted else None
            )

        reads("colt_queries_total", "_counted")
        self._m_epochs = TUNER_METRICS["colt_epochs_total"].build(self.registry)
        reads("colt_whatif_calls_total", "_whatif_calls")
        reads("colt_whatif_overhead_cost_total", "_whatif_overhead")
        reads("colt_execution_cost_total", "_execution_cost")
        self._m_query_cost = TUNER_METRICS["colt_query_cost"].build(self.registry)
        # Adopt whatever is already materialized as the starting M.
        self.self_organizer.materialized = set(self.catalog.materialized_indexes())

    @property
    def materialized(self) -> Set[IndexDef]:
        """``M``, owned by the Self-Organizer (which rebinds it per epoch)."""
        return self.self_organizer.materialized

    @property
    def hot(self) -> Set[IndexDef]:
        """``H``, owned by the Self-Organizer."""
        return self.self_organizer.hot

    # ------------------------------------------------------------------
    def _observe_query(self, query: Query, session) -> Tuple[int, float]:
        calls_before = self.whatif.call_count
        self.profiler.profile_query(
            query,
            session,
            hot=self.self_organizer.hot,
            materialized=self.self_organizer.materialized,
        )
        calls = self.whatif.call_count - calls_before
        return calls, calls * self.config.whatif_call_cost

    def _count_query(self, session, calls: int, overhead: float) -> None:
        cost = session.base.cost
        self._counted += 1
        self._whatif_calls += calls
        self._whatif_overhead += overhead
        self._execution_cost += cost
        self._m_query_cost.observe(cost)

    def _note_insert(self, table: str, n: int) -> None:
        self._epoch_inserts[table] = self._epoch_inserts.get(table, 0) + n

    def _epoch_budget(self) -> Tuple[int, int, int]:
        return (
            self.config.max_whatif_per_epoch,
            self.profiler.whatif_budget,
            self.profiler.whatif_used,
        )

    def _digest_epoch(self):
        tracked = self.self_organizer.tracked()
        self.profiler.end_epoch(tracked)
        return tracked

    def _decide(
        self, tracked, constraints: Optional[SelectionConstraints]
    ) -> ReorganizationResult:
        inserts = self._epoch_inserts
        self._epoch_inserts = {}
        return self.self_organizer.end_epoch(
            tracked, self.profiler, inserts=inserts, constraints=constraints
        )

    def _applied(self, reorg: ReorganizationResult, changed: bool) -> None:
        # Pair statistics gathered under the old M are stale once it moves.
        if changed:
            self.profiler.purge_stale()
        self.profiler.set_budget(reorg.whatif_budget)
        self._m_epochs.inc()
