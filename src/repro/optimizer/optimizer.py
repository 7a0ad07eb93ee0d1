"""Optimizer facade.

``Optimizer.optimize(query, config)`` returns the cheapest physical plan
for a bound query under a given index configuration, together with its
cost.  A per-query :class:`PlanCache` memoizes access paths keyed by the
subset of the configuration that is *relevant to each table*; this is the
"reuse intermediate solutions from the initial query optimization" trick
the paper's prototype uses to make consecutive what-if calls cheap.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Tuple

from repro.optimizer.access import best_access_path, table_scan
from repro.optimizer.joins import JoinPlanner
from repro.optimizer.plan import (
    AggregateNode,
    IndexScanNode,
    LimitNode,
    ProjectNode,
    SortNode,
)
from repro.sql.ast import Aggregate

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef
    from repro.optimizer.access import IndexConfig, TableScan
    from repro.optimizer.plan import PlanNode
    from repro.sql.ast import Query


#: The one empty configuration (``frozenset(iterable)`` allocates a new
#: object even when empty, and plan caches keep their keys).
_NO_INDEXES: IndexConfig = frozenset()


def relevant_config(query: Query, config: IndexConfig) -> IndexConfig:
    """Restrict a configuration to indexes that could affect the query.

    An index is relevant if its table appears in the query and its
    column is referenced by a filter or join predicate.  Plan identity
    (and therefore cost) depends only on this restriction, which is the
    plan-cache key -- and why an index outside it has a what-if gain of
    exactly 0.0 (the gain cache's structural-zero rule).

    This is a pure function of the query text and the configuration --
    no catalog access -- which is what lets backends without a local
    optimizer (trace replay, remote servers) compute the same
    signatures.
    """
    return _restrict(config, referenced_columns(query))


def referenced_columns(query: Query) -> FrozenSet[Tuple[str, str]]:
    """The ``(table, column)`` pairs of the query's own tables that a
    filter or join predicate references: the query's half of
    :func:`relevant_config`."""
    tables = query.tables
    return frozenset(
        (c.table, c.column)
        for c in query.selection_columns() + query.join_columns()
        if c.table in tables
    )


def _restrict(config: IndexConfig, referenced: FrozenSet[Tuple[str, str]]) -> IndexConfig:
    """The configuration's half of :func:`relevant_config`."""
    return frozenset(
        ix for ix in config if (ix.table, ix.column) in referenced
    ) or _NO_INDEXES


@dataclasses.dataclass
class OptimizationResult:
    """Outcome of one optimization.

    Attributes:
        plan: The chosen physical plan.
        cost: The plan's total estimated cost (same as ``plan.cost``).
        config: The index configuration the plan was optimized under.
        indexes_used: ``plan.indexes_used()``, walked once when the
            result is made (a plan cache serves a result many times)
            unless the maker passes it, as a one-table plan does.
    """

    plan: PlanNode
    cost: float
    config: IndexConfig
    indexes_used: FrozenSet[IndexDef] = None

    def __post_init__(self) -> None:
        if self.indexes_used is None:
            self.indexes_used = frozenset(self.plan.indexes_used())


class PlanCache:
    """Per-query cache of everything the optimizer derives for one query.

    Keys the access paths of a join query by (table, relevant-index
    subset) so a what-if call that hypothesizes an index on table R
    reuses every other table's path untouched (a one-table query has no
    other table), and caches whole plans by the relevant-config signature so
    repeated what-if calls with identical effective configurations are
    free.  Beside these configuration-keyed parts it holds what depends
    on the query and the statistics alone: the per-table costing
    constants (:class:`~repro.optimizer.access.TableScan`: filter
    selectivities, each index's sargable decomposition and the
    sequential-scan baseline), the candidate tracker's mined indexes and
    their crude delta costs, the query's cluster key and (the query
    alone) its referenced columns.

    It comes in two halves.  The *priced* half -- ``plans``,
    ``access_paths``, each scan's sequential path and index costs, and
    the crude delta costs -- reads row counts; the *structural* half --
    everything else -- reads only the query and the installed column
    statistics, so a row move leaves it exact and :meth:`reprice` drops
    the priced half alone.  A change of the materialized set makes
    nothing stale, so a backend may keep one for as long as the
    statistics it was filled under hold (:meth:`LocalBackend.begin_query
    <repro.backend.local.LocalBackend.begin_query>`).

    Attributes:
        referenced: The query's :func:`referenced_columns`, or None
            until the query is first optimized on this cache.
        mined: The candidate indexes mined without (slot 0) and with
            (slot 1) composite candidates, or None until a
            :class:`~repro.core.candidates.CandidateTracker` mines the
            query.
        crude: The ``[(index, crude delta cost)]`` pairs over ``mined``,
            slot for slot, or None until priced.
        cluster_key: The query's :func:`~repro.core.clustering.
            cluster_key`, or None until a :class:`~repro.core.clustering.
            ClusterStore` assigns the query.
    """

    __slots__ = (
        "access_paths", "plans", "scans", "referenced", "mined", "crude",
        "cluster_key", "hits", "misses",
    )

    def __init__(self) -> None:
        self.access_paths: Dict[Tuple[str, FrozenSet[IndexDef]], PlanNode] = {}
        self.plans: Dict[FrozenSet[IndexDef], OptimizationResult] = {}
        self.scans: Dict[str, TableScan] = {}
        self.referenced: Optional[FrozenSet[Tuple[str, str]]] = None
        self.mined: Optional[list] = None
        self.crude: Optional[list] = None
        self.cluster_key: Optional[tuple] = None
        self.hits = 0
        self.misses = 0

    def reprice(self, catalog: Catalog) -> None:
        """Drop the priced half after a row move, keeping the structural
        half (valid only while the column statistics it read hold)."""
        self.plans.clear()
        self.access_paths.clear()
        for scan in self.scans.values():
            scan.reprice(catalog)
        self.crude = None

    def scan(self, catalog: Catalog, query: Query, table: str) -> TableScan:
        """The query's :class:`TableScan` for ``table``, made on first use."""
        scan = self.scans.get(table)
        if scan is None:
            scan = self.scans[table] = table_scan(catalog, table, query.filters_on(table))
        return scan


class Optimizer:
    """Cost-based optimizer over a catalog.

    Attributes:
        optimize_count: Number of full optimizations performed, across
            normal and what-if use; exposed for overhead accounting.
    """

    def __init__(self, catalog: Catalog) -> None:
        self._catalog = catalog
        self.optimize_count = 0
        # (catalog generation, configuration, its restriction per referenced
        # column set) of the last current_config().
        self._current: Optional[Tuple[int, IndexConfig, dict]] = None

    @property
    def catalog(self) -> Catalog:
        """The catalog this optimizer plans against."""
        return self._catalog

    def current_config(self) -> IndexConfig:
        """The currently materialized index set, as a configuration."""
        generation = self._catalog.generation
        held = self._current
        if held is None or held[0] != generation:
            config = frozenset(self._catalog.materialized_indexes())
            held = self._current = (generation, config, {})
        return held[1]

    def relevant(self, query: Query, config: IndexConfig, cache: PlanCache) -> IndexConfig:
        """``relevant_config(query, config)`` through what is held: the
        query's half in ``cache``, the configuration's half only for the
        object :meth:`current_config` hands out (replaced when the
        materialized set moves).  A probe's ``M ± {I}`` is restricted afresh.
        """
        referenced = cache.referenced
        if referenced is None:
            referenced = cache.referenced = referenced_columns(query)
        held = self._current
        if held is None or config is not held[1]:
            return _restrict(config, referenced)
        relevant = held[2].get(referenced)
        if relevant is None:
            relevant = held[2][referenced] = _restrict(config, referenced)
        return relevant

    def optimize(
        self,
        query: Query,
        config: Optional[IndexConfig] = None,
        cache: Optional[PlanCache] = None,
    ) -> OptimizationResult:
        """Find the cheapest plan for ``query`` under ``config``.

        Args:
            query: A bound query.
            config: Index configuration; defaults to the catalog's
                materialized set.
            cache: Optional per-query cache shared across what-if calls.

        Returns:
            The optimization result with plan and cost.
        """
        if config is None:
            config = self.current_config()
        if cache is None:
            cache = PlanCache()  # scratch: shares work within this call only
        relevant = self.relevant(query, config, cache)
        result = cache.plans.get(relevant)
        if result is not None:
            cache.hits += 1
            return result

        self.optimize_count += 1
        cache.misses += 1

        if len(query.tables) == 1:
            # One table: the plan memo above already is the path memo, and
            # the access path is the plan below the finishing nodes.
            (table,) = query.tables
            scan = cache.scan(self._catalog, query, table)
            plan = best_access_path(self._catalog, table, scan.filters, relevant, scan)
            used = (
                frozenset((plan.index,)) if type(plan) is IndexScanNode else _NO_INDEXES
            )
        else:
            access_paths: Dict[str, PlanNode] = {}
            for table in query.tables:
                table_config = (
                    frozenset(ix for ix in relevant if ix.table == table)
                    or _NO_INDEXES
                )
                key = (table, table_config)
                path = cache.access_paths.get(key)
                if path is None:
                    scan = cache.scan(self._catalog, query, table)
                    path = best_access_path(
                        self._catalog, table, scan.filters, table_config, scan
                    )
                    cache.access_paths[key] = path
                access_paths[table] = path
            planner = JoinPlanner(self._catalog, query, relevant, cache.scans)
            plan = planner.plan(access_paths)
            used = None  # walked from the plan
        plan = self._finalize(query, plan)
        result = OptimizationResult(plan, plan.cost, config, used)
        cache.plans[relevant] = result
        return result

    def _finalize(self, query: Query, plan: PlanNode) -> PlanNode:
        """Stack aggregation / sort / limit / projection above the join tree."""
        params = self._catalog.params
        aggregates = [
            item.expr for item in query.select if isinstance(item.expr, Aggregate)
        ]
        if aggregates or query.group_by:
            groups = self._group_count(query, plan.rows)
            cost = (
                plan.cost
                + plan.rows
                * (len(aggregates) + len(query.group_by) + 1)
                * params.cpu_operator_cost
                + groups * params.cpu_tuple_cost
            )
            plan = AggregateNode(
                rows=groups,
                cost=cost,
                child=plan,
                group_by=list(query.group_by),
                aggregates=aggregates,
                output=list(query.select),
            )
        if query.order_by and not _provides_order(plan, query.order_by):
            n = max(2.0, plan.rows)
            cost = plan.cost + 2.0 * n * math.log2(n) * params.cpu_operator_cost
            plan = SortNode(rows=plan.rows, cost=cost, child=plan, keys=list(query.order_by))
        if query.limit is not None:
            rows = min(float(query.limit), plan.rows)
            plan = LimitNode(rows=rows, cost=plan.cost, child=plan, limit=query.limit)
        if query.select and not aggregates and not query.group_by:
            cost = plan.cost + plan.rows * params.cpu_operator_cost * len(query.select)
            plan = ProjectNode(rows=plan.rows, cost=cost, child=plan, output=list(query.select))
        return plan

    def _group_count(self, query: Query, input_rows: float) -> float:
        """Estimated number of groups for an aggregation."""
        if not query.group_by:
            return 1.0
        distinct = 1.0
        for col in query.group_by:
            stats = self._catalog.stats(col.table, col.column)
            distinct *= max(1.0, stats.n_distinct)
        return max(1.0, min(input_rows, distinct))


def _provides_order(plan: PlanNode, order_by) -> bool:
    """Whether the plan's output already satisfies the ORDER BY.

    The narrow, safe case: a single ascending key served directly by a
    single-column B+tree range or point scan on that exact column --
    leaf chaining yields rows in key order.  IN-list scans (keys visited
    in list order), parameterized scans, composite indexes, descending
    keys, and anything above a join are all excluded.
    """
    if len(order_by) != 1 or order_by[0].descending:
        return False
    if not isinstance(plan, IndexScanNode):
        return False
    node = plan
    if node.parameterized_by is not None or node.in_values is not None:
        return False
    if node.index.is_composite:
        return False
    key = order_by[0].column
    return node.table == key.table and node.index.column == key.column
