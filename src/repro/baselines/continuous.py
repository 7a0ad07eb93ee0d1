"""A QUIET-style continuous on-line tuner (the prior-work model).

The paper positions COLT against earlier on-line index tuners (QUIET
[17], Cache Investment [13], Hammer & Chan [12]) that share a simple
working model: watch the workload, estimate candidate index benefits
through what-if optimization, and materialize an index once its
*accumulated* observed benefit exceeds its build cost.  Crucially, these
systems have **no mechanism to regulate what-if usage** -- they profile
with the same intensity whether or not the system can be tuned any
better, which is exactly the overhead problem COLT's re-budgeting
solves.

This module implements that model faithfully enough to serve as an
experimental comparator:

* every query triggers what-if calls for **all** relevant candidate
  indexes (no budget, no sampling, no clustering);
* per-index benefits accumulate with exponential decay (so old evidence
  ages out and the tuner can adapt to shifts);
* an index is materialized when its decayed accumulated benefit exceeds
  ``ADOPTION_FACTOR`` times its build cost, subject to the storage
  budget (evicting the lowest-credit indexes if needed);
* a materialized index whose credit decays below ``RETIREMENT_FACTOR``
  times its build cost is dropped.

It reads the storage budget and the what-if charge from the same
:class:`~repro.core.config.ColtConfig` as COLT, so a comparison runs
both tuners under one configuration.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.backend.local import LocalBackend
from repro.core.config import ColtConfig
from repro.optimizer.whatif import WhatIfOptimizer

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef
    from repro.optimizer.plan import PlanNode
    from repro.sql.ast import Query


#: Per-query multiplicative decay of accumulated credit (memory
#: comparable to COLT's ``w * h`` queries).
DECAY = 0.99
#: Multiple of its build cost an index's credit must reach before it is
#: materialized.
ADOPTION_FACTOR = 1.0
#: Credit floor, as a multiple of its build cost, below which a
#: materialized index is dropped.
RETIREMENT_FACTOR = 0.1


@dataclasses.dataclass
class ContinuousOutcome:
    """Ledger record for one query processed by the continuous tuner."""

    index: int
    execution_cost: float
    whatif_calls: int
    whatif_overhead: float
    build_cost: float
    total_cost: float
    plan: PlanNode


class ContinuousTuner:
    """The unregulated continuous tuner (QUIET-style baseline)."""

    def __init__(self, catalog: Catalog, config: Optional[ColtConfig] = None) -> None:
        self.catalog = catalog
        self.config = config or ColtConfig()
        self.whatif = WhatIfOptimizer(LocalBackend(catalog))
        self._credit: Dict[IndexDef, float] = {}
        self._queries = 0

    @property
    def materialized_set(self) -> List[IndexDef]:
        """The currently materialized indexes."""
        return sorted(self.catalog.materialized_indexes(), key=str)

    # ------------------------------------------------------------------
    def process_query(self, query: Query) -> ContinuousOutcome:
        """Optimize, profile every relevant candidate, maybe materialize."""
        session = self.whatif.begin_query(query)
        calls_before = self.whatif.call_count

        self._decay_credit()
        candidates = self._relevant_candidates(query)
        if candidates:
            gains = self.whatif.what_if_optimize(session, candidates)
            for index, gain in gains.items():
                self._credit[index] = self._credit.get(index, 0.0) + max(0.0, gain)

        build_cost = self._reorganize()

        calls = self.whatif.call_count - calls_before
        overhead = calls * self.config.whatif_call_cost
        self._queries += 1
        return ContinuousOutcome(
            index=self._queries - 1,
            execution_cost=session.base.cost,
            whatif_calls=calls,
            whatif_overhead=overhead,
            build_cost=build_cost,
            total_cost=session.base.cost + overhead + build_cost,
            plan=session.base.plan,
        )

    def run(self, queries) -> List[ContinuousOutcome]:
        """Process a sequence of queries."""
        return [self.process_query(q) for q in queries]

    # ------------------------------------------------------------------
    def _relevant_candidates(self, query: Query) -> List[IndexDef]:
        catalog = self.catalog
        return list(
            dict.fromkeys(
                catalog.index_for(col.table, col.column)
                for col in query.selection_columns() + query.join_columns()
                if catalog.table(col.table).column(col.column).indexable
            )
        )

    def _decay_credit(self) -> None:
        for index in list(self._credit):
            self._credit[index] *= DECAY
            if self._credit[index] < 1e-9:
                del self._credit[index]

    def _reorganize(self) -> float:
        """Adopt over-threshold candidates; retire decayed incumbents."""
        build_cost = 0.0

        # Retirement first, freeing space.
        for index in self.catalog.materialized_indexes():
            floor = RETIREMENT_FACTOR * self.catalog.index_build_cost(index)
            if self._credit.get(index, 0.0) < floor:
                self.catalog.drop_index(index)

        # Adoption, richest candidates first.
        credit_of = self._credit
        hopefuls = sorted(
            (ix for ix in credit_of if not self.catalog.is_materialized(ix)),
            key=lambda ix: (credit_of[ix], ix.table, ix.column),
            reverse=True,
        )
        for index in hopefuls:
            credit = credit_of[index]
            threshold = ADOPTION_FACTOR * self.catalog.index_build_cost(index)
            if credit < threshold:
                break  # sorted descending: nothing later qualifies either
            if not self._fits_with_eviction(index):
                continue
            build_cost += self.catalog.index_build_cost(index)
            self.catalog.materialize_index(index)
        return build_cost

    def _fits_with_eviction(self, index: IndexDef) -> bool:
        """Make room by evicting lower-credit incumbents if possible."""
        budget = self.config.storage_budget_pages
        size = self.catalog.index_size_pages(index)
        if size > budget:
            return False
        used = self.catalog.materialized_size_pages()
        if used + size <= budget:
            return True
        credit = self._credit.get(index, 0.0)
        incumbents = sorted(
            self.catalog.materialized_indexes(),
            key=lambda ix: self._credit.get(ix, 0.0),
        )
        for victim in incumbents:
            victim_credit = self._credit.get(victim, 0.0)
            if victim_credit >= credit:
                return False  # cannot evict a better incumbent
            self.catalog.drop_index(victim)
            used -= self.catalog.index_size_pages(victim)
            if used + size <= budget:
                return True
        return used + size <= budget
