"""Simulation harness: run COLT and OFFLINE over a workload.

Both tuners see the same query sequence but own separate catalogs (their
materialized sets must evolve independently).  Bound queries reference
tables and columns by name only, so one workload can be replayed against
any structurally identical catalog.

Cost accounting follows §6.1: OFFLINE's reported time excludes index
selection and materialization (they happen off-line); COLT's includes
the initially empty index set, what-if overhead, and on-line index
builds.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.baselines.offline import OfflineTuner
from repro.core.colt import ColtTuner

if TYPE_CHECKING:
    from repro.baselines.offline import OfflineResult
    from repro.core.colt import QueryOutcome
    from repro.core.config import ColtConfig
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef
    from repro.sql.ast import Query


@dataclasses.dataclass
class ColtRun:
    """Complete ledger of one COLT simulation.

    Attributes:
        outcomes: Per-query ledger records.
        total_costs: Per-query total cost (execution + overheads).
        execution_costs: Per-query execution cost only.
        whatif_per_epoch: What-if calls spent in each epoch (a trailing
            partial epoch included when it spent any).
        budget_per_epoch: The ``#WI_lim`` granted for each closed epoch.
        materialized_history: ``|M|`` after each closed epoch.
        final_materialized: The final materialized set.
        profiled_index_count: Distinct indexes that ever received a
            what-if call (the paper reports COLT profiles ~11% of the
            relevant indexes).
    """

    outcomes: List[QueryOutcome]
    total_costs: List[float]
    execution_costs: List[float]
    whatif_per_epoch: List[int]
    budget_per_epoch: List[int]
    materialized_history: List[int]
    final_materialized: List[IndexDef]
    profiled_index_count: int

    @property
    def total_cost(self) -> float:
        """Workload-wide total cost."""
        return sum(self.total_costs)


@dataclasses.dataclass
class OfflineRun:
    """Ledger of the OFFLINE baseline over the same workload.

    Attributes:
        result: The off-line tuning outcome (chosen set, search stats).
        per_query_costs: Execution cost of each workload query under the
            chosen (pre-materialized) configuration.
    """

    result: OfflineResult
    per_query_costs: List[float]

    @property
    def total_cost(self) -> float:
        """Workload-wide total cost."""
        return sum(self.per_query_costs)


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
        The complete run ledger; its per-epoch series are read off the
        tuner's epoch log (the newest
        :data:`~repro.obs.dashboard.WINDOW_EPOCHS` epochs, then the
        open epoch's what-if calls when there are any).
    """
    tuner = ColtTuner(catalog, config)
    outcomes = [tuner.process_query(query) for query in workload]
    log = tuner.dashboard
    whatif_epoch = [row.whatif_used for row in log.records]
    if log.open_whatif:
        whatif_epoch.append(log.open_whatif)
    return ColtRun(
        outcomes=outcomes,
        total_costs=[o.total_cost for o in outcomes],
        execution_costs=[o.execution_cost for o in outcomes],
        whatif_per_epoch=whatif_epoch,
        budget_per_epoch=[row.granted for row in log.records],
        materialized_history=[len(row.materialized) for row in log.records],
        final_materialized=tuner.materialized_set,
        profiled_index_count=len(set(tuner.whatif.probed_indexes)),
    )


def run_offline(
    catalog: Catalog,
    workload: Sequence[Query],
    budget_pages: float,
    tuning_workload: Optional[Sequence[Query]] = None,
    strategy: str = "exhaustive",
) -> OfflineRun:
    """Simulate the OFFLINE baseline.

    Args:
        catalog: A fresh catalog.
        workload: The queries to *measure* (arrival order).
        budget_pages: Storage budget ``B``.
        tuning_workload: The queries OFFLINE tunes on; defaults to the
            measured workload.  The Figure 6 experiment tunes on the
            noise-free Q1 queries only.
        strategy: ``"exhaustive"`` or ``"greedy"``.

    Returns:
        The run ledger, with per-query costs under the chosen set.
    """
    tuner = OfflineTuner(catalog, strategy=strategy)
    result = tuner.tune(
        tuning_workload if tuning_workload is not None else workload,
        budget_pages,
    )
    for index in result.indexes:
        catalog.materialize_index(index)
    costs = tuner.query_costs(workload, frozenset(result.indexes))
    return OfflineRun(result=result, per_query_costs=costs)


def bar_series(values: Sequence[float], width: int = 50) -> List[float]:
    """Sum a per-query series into consecutive bars of ``width`` queries."""
    return [
        sum(values[start : start + width])
        for start in range(0, len(values), width)
    ]
