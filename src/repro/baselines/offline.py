"""The OFFLINE baseline (§6.1).

Given the *exact* workload in advance, OFFLINE finds the single-column
index set that minimizes total workload cost within the storage budget,
using the same optimizer COLT profiles with.  Index selection and
materialization are assumed to happen before the workload runs and cost
nothing (they are off-line).

Exhaustive search is made tractable by a decomposition that loses no
precision: a query's cost depends only on the candidate indexes *relevant
to it* (same tables, referenced columns).  Queries are grouped by their
relevant-index set; for each group we precompute the total group cost
under every subset of its relevant indexes (at most ``2^k`` for small
``k``).  The cost of a full configuration ``S`` is then a sum of ``G``
table lookups instead of ``|W|`` optimizations, and branch-and-bound over
the candidate lattice finds the exact optimum.

For candidate sets too large to enumerate, a greedy mode (repeatedly add
the index with the best marginal gain per page) is provided; the paper's
experiments stay within exhaustive range (18 candidates).
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.optimizer.optimizer import Optimizer, PlanCache

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef
    from repro.sql.ast import Query

MAX_EXHAUSTIVE_CANDIDATES = 22
MAX_GROUP_RELEVANT = 12


@dataclasses.dataclass
class OfflineResult:
    """Outcome of off-line tuning.

    Attributes:
        indexes: The chosen index set.
        total_cost: Total workload cost under the chosen set.
        baseline_cost: Total workload cost with no extra indexes.
        configurations_examined: Search-space size actually visited.
    """

    indexes: List[IndexDef]
    total_cost: float
    baseline_cost: float
    configurations_examined: int


class OfflineTuner:
    """Exhaustive (or greedy) off-line single-column index selection."""

    def __init__(
        self,
        catalog: Catalog,
        strategy: str = "exhaustive",
    ) -> None:
        if strategy not in ("exhaustive", "greedy"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self._catalog = catalog
        self._strategy = strategy
        self._optimizer = Optimizer(catalog)

    def tune(
        self,
        workload: Sequence[Query],
        budget_pages: float,
        candidates: Optional[Sequence[IndexDef]] = None,
    ) -> OfflineResult:
        """Select the optimal index set for a known workload.

        Args:
            workload: The exact query sequence (bound queries).
            budget_pages: Storage budget ``B`` in pages.
            candidates: Candidate indexes; defaults to every indexable
                column referenced by a selection or join predicate in
                the workload.

        Returns:
            The chosen configuration and its workload cost.
        """
        pool = list(candidates) if candidates is not None else self._mine(workload)
        pool = [
            ix
            for ix in pool
            if self._catalog.index_size_pages(ix) <= budget_pages
        ]
        groups = self._group_costs(workload, pool)
        baseline = sum(g.cost_of(frozenset()) for g in groups)

        if (
            self._strategy == "exhaustive"
            and len(pool) <= MAX_EXHAUSTIVE_CANDIDATES
        ):
            chosen, cost, examined = self._search(groups, pool, budget_pages, baseline)
        else:
            chosen, cost, examined = self._greedy(groups, pool, budget_pages, baseline)
        return OfflineResult(
            indexes=sorted(chosen, key=str),
            total_cost=cost,
            baseline_cost=baseline,
            configurations_examined=examined,
        )

    def query_costs(
        self, workload: Sequence[Query], config: FrozenSet[IndexDef]
    ) -> List[float]:
        """Each query's cost under the fixed configuration ``config``,
        each priced from scratch (a fresh plan cache per query)."""
        return [
            self._optimizer.optimize(q, config=config, cache=PlanCache()).cost
            for q in workload
        ]

    # ------------------------------------------------------------------
    def _mine(self, workload: Sequence[Query]) -> List[IndexDef]:
        seen = {}
        for query in workload:
            for col in query.selection_columns() + query.join_columns():
                if self._catalog.table(col.table).column(col.column).indexable:
                    seen[(col.table, col.column)] = True
        return [self._catalog.index_for(t, c) for (t, c) in sorted(seen)]

    def _group_costs(
        self, workload: Sequence[Query], pool: Sequence[IndexDef]
    ) -> List["_QueryGroup"]:
        pool_set = set(pool)
        groups: Dict[FrozenSet[IndexDef], _QueryGroup] = {}
        for query in workload:
            relevant = frozenset(
                ix
                for ix in self._relevant(query)
                if ix in pool_set
            )
            group = groups.get(relevant)
            if group is None:
                group = _QueryGroup(relevant, self._optimizer)
                groups[relevant] = group
            group.queries.append(query)
        for group in groups.values():
            group.precompute()
        return list(groups.values())

    def _relevant(self, query: Query) -> List[IndexDef]:
        seen = {}
        for col in query.selection_columns() + query.join_columns():
            seen[(col.table, col.column)] = True
        return [self._catalog.index_for(t, c) for (t, c) in seen]

    # ------------------------------------------------------------------
    def _search(
        self,
        groups: List["_QueryGroup"],
        pool: List[IndexDef],
        budget: float,
        baseline: float,
    ) -> Tuple[List[IndexDef], float, int]:
        """Exact branch-and-bound over subsets of the pool."""
        sizes = [self._catalog.index_size_pages(ix) for ix in pool]
        # Per-index best-case gain (against the empty configuration)
        # upper-bounds any marginal contribution; used for pruning.
        solo_gain = []
        for ix in pool:
            gain = 0.0
            for g in groups:
                if ix in g.relevant:
                    gain += g.cost_of(frozenset()) - g.cost_of(frozenset([ix]))
            solo_gain.append(max(0.0, gain))

        order = sorted(
            range(len(pool)), key=lambda i: solo_gain[i], reverse=True
        )
        # suffix_bound[k]: the most any selection drawn from order[k:]
        # could still gain (sum of solo gains, which upper-bound marginal
        # gains because index benefits never increase when combined with
        # more indexes in this engine).
        suffix_bound = [0.0] * (len(order) + 1)
        for k in range(len(order) - 1, -1, -1):
            suffix_bound[k] = suffix_bound[k + 1] + solo_gain[order[k]]

        best_cost = baseline
        best_set: Tuple[int, ...] = ()
        examined = 0

        def cost_of(selection: Tuple[int, ...]) -> float:
            chosen = frozenset(pool[i] for i in selection)
            return sum(g.cost_of(chosen & g.relevant) for g in groups)

        def dfs(pos: int, selection: Tuple[int, ...], used: float, cost: float):
            nonlocal best_cost, best_set, examined
            if cost < best_cost - 1e-9:
                best_cost = cost
                best_set = selection
            for nxt in range(pos, len(order)):
                i = order[nxt]
                if used + sizes[i] > budget:
                    continue
                if cost - suffix_bound[nxt] >= best_cost:
                    break  # later positions have even smaller bounds
                examined += 1
                extended = selection + (i,)
                dfs(nxt + 1, extended, used + sizes[i], cost_of(extended))

        examined += 1
        dfs(0, (), 0.0, baseline)
        return [pool[i] for i in best_set], best_cost, examined

    def _greedy(
        self,
        groups: List["_QueryGroup"],
        pool: List[IndexDef],
        budget: float,
        baseline: float,
    ) -> Tuple[List[IndexDef], float, int]:
        chosen: List[IndexDef] = []
        used = 0.0
        current = baseline
        examined = 0
        remaining = list(pool)
        while True:
            best_ix = None
            best_cost = current
            for ix in remaining:
                size = self._catalog.index_size_pages(ix)
                if used + size > budget:
                    continue
                examined += 1
                trial = frozenset(chosen + [ix])
                cost = sum(g.cost_of(trial & g.relevant) for g in groups)
                if cost < best_cost - 1e-9:
                    best_cost = cost
                    best_ix = ix
            if best_ix is None:
                break
            chosen.append(best_ix)
            remaining.remove(best_ix)
            used += self._catalog.index_size_pages(best_ix)
            current = best_cost
        return chosen, current, examined


class _QueryGroup:
    """Queries sharing one relevant-index set, with precomputed costs."""

    def __init__(self, relevant: FrozenSet[IndexDef], optimizer: Optimizer) -> None:
        self.relevant = relevant
        self.queries: List[Query] = []
        self._optimizer = optimizer
        self._costs: Dict[FrozenSet[IndexDef], float] = {}

    def precompute(self) -> None:
        """Total group cost under every subset of the relevant indexes.

        Groups with very wide relevant sets (rare) fall back to lazy
        evaluation to avoid exponential precomputation.
        """
        if len(self.relevant) > MAX_GROUP_RELEVANT:
            return
        members = sorted(self.relevant, key=str)
        for r in range(len(members) + 1):
            for combo in itertools.combinations(members, r):
                self._compute(frozenset(combo))

    def cost_of(self, subset: FrozenSet[IndexDef]) -> float:
        """Total cost of the group's queries under ``subset``."""
        if subset not in self._costs:
            self._compute(subset)
        return self._costs[subset]

    def _compute(self, subset: FrozenSet[IndexDef]) -> None:
        total = 0.0
        for query in self.queries:
            cache = PlanCache()
            total += self._optimizer.optimize(query, config=subset, cache=cache).cost
        self._costs[subset] = total
