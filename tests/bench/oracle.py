"""The per-epoch folds as they were before the tuner's one epoch log.

:class:`TraceAccumulator` folded every ledger record of a tuner into one
:class:`~repro.bench.tracing.EpochTrace` per closed epoch (it served
``trace_run``, fleet replicas and the CLI timeline), and :func:`run_colt`
folded the same records again into ``ColtRun``'s per-epoch lists.  Both
are kept here verbatim as the reference the epoch log
(``TuningLoop.dashboard``) and its readers are held against
(``test_epoch_log_oracle.py``); nothing in ``src/`` imports them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.bench.harness import ColtRun
from repro.bench.tracing import EpochTrace, TunerTrace, _short
from repro.core.colt import ColtTuner

if TYPE_CHECKING:
    from repro.core.config import ColtConfig
    from repro.core.loop import QueryOutcome, TuningLoop
    from repro.engine.catalog import Catalog
    from repro.sql.ast import Query


class TraceAccumulator:
    """Folds a tuner's ledger records into one :class:`EpochTrace` per epoch.

    The single builder of epoch records: :func:`trace_run`, the fleet's
    :class:`~repro.fleet.replica.TunerReplica` and the CLI timeline all
    feed it the outcomes of whichever engine they drive.
    """

    def __init__(self, tuner: TuningLoop) -> None:
        self.tuner = tuner
        self.epochs: List[EpochTrace] = []
        self._execution = 0.0
        self._total = 0.0
        self._whatif = 0

    def add(self, outcome: QueryOutcome) -> Optional[EpochTrace]:
        """Account one ledger record of the tuner.

        Returns:
            The epoch record this outcome closed, if it closed one.
        """
        self._execution += outcome.execution_cost
        self._total += outcome.total_cost
        self._whatif += outcome.whatif_calls
        reorg = outcome.reorganization
        if not outcome.epoch_ended or reorg is None:
            return None
        closed = EpochTrace(
            epoch=len(self.epochs),
            execution_cost=self._execution,
            total_cost=self._total,
            whatif_used=self._whatif,
            budget_granted=reorg.whatif_budget,
            improvement_ratio=reorg.improvement_ratio,
            materialized=[ix.name for ix in self.tuner.materialized_set],
            added=[_short(ix.name) for ix in reorg.materialize],
            dropped=[_short(ix.name) for ix in reorg.drop],
            hot=[ix.name for ix in reorg.hot],
        )
        self.epochs.append(closed)
        self._execution = self._total = 0.0
        self._whatif = 0
        return closed

    def trace(self) -> TunerTrace:
        """The epochs recorded so far as a trace of the tuner."""
        return TunerTrace(
            epochs=list(self.epochs),
            config=self.tuner.config,
            engine=self.tuner.engine_name,
        )


def run_colt(
    catalog: Catalog,
    workload: Sequence[Query],
    config: Optional[ColtConfig] = None,
) -> ColtRun:
    """Simulate COLT over a workload.

    Args:
        catalog: A fresh catalog (no indexes materialized).
        workload: Bound queries in arrival order.
        config: COLT parameters.

    Returns:
        The complete run ledger.
    """
    tuner = ColtTuner(catalog, config)
    outcomes: List[QueryOutcome] = []
    whatif_epoch: List[int] = []
    budget_epoch: List[int] = [tuner.profiler.whatif_budget]
    m_history: List[int] = []
    epoch_calls = 0
    profiled: set = set()

    for query in workload:
        outcome = tuner.process_query(query)
        outcomes.append(outcome)
        epoch_calls += outcome.whatif_calls
        if outcome.epoch_ended:
            whatif_epoch.append(epoch_calls)
            epoch_calls = 0
            m_history.append(len(tuner.materialized_set))
            assert outcome.reorganization is not None
            budget_epoch.append(outcome.reorganization.whatif_budget)
    if epoch_calls:
        whatif_epoch.append(epoch_calls)

    profiled = set(tuner.whatif.probed_indexes)

    return ColtRun(
        outcomes=outcomes,
        total_costs=[o.total_cost for o in outcomes],
        execution_costs=[o.execution_cost for o in outcomes],
        whatif_per_epoch=whatif_epoch,
        budget_per_epoch=budget_epoch[:-1],
        materialized_history=m_history,
        final_materialized=tuner.materialized_set,
        profiled_index_count=len(profiled),
    )

