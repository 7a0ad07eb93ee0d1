"""Selinger-style dynamic-programming join enumeration.

Plans are built bottom-up over connected subsets of the join graph.  For
each way of splitting a subset into two connected halves joined by at
least one equi-join edge, three physical operators are considered:

* **Hash join** -- build on the smaller side, with a spill penalty when
  the build side exceeds the hash workspace.
* **Index nested loop** -- when the inner side is a single base relation
  with an available index on its join column.
* **Materialized nested loop** -- the quadratic fallback, only attractive
  for tiny inputs.

Cardinalities are computed per subset (independent of the plan shape)
from filtered base cardinalities and per-edge join selectivities.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.optimizer.access import parameterized_index_path, table_scan
from repro.optimizer.plan import HashJoinNode, IndexScanNode, NestedLoopNode
from repro.optimizer.selectivity import join_selectivity

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.optimizer.access import IndexConfig, TableScan
    from repro.optimizer.plan import PlanNode
    from repro.sql.ast import JoinPredicate, Query


class JoinPlanner:
    """Enumerates join orders for one query under one index configuration.

    ``scans`` holds the query's :class:`~repro.optimizer.access.TableScan`
    per table where the caller already has them (the per-query plan
    cache); tables it lacks are evaluated here.
    """

    def __init__(
        self,
        catalog: Catalog,
        query: Query,
        config: IndexConfig,
        scans: Optional[Dict[str, TableScan]] = None,
    ) -> None:
        self._catalog = catalog
        self._query = query
        self._config = config
        self._tables = list(query.tables)
        self._index_of = {t: i for i, t in enumerate(self._tables)}
        held = scans or {}
        self._scans = {
            t: held.get(t) or table_scan(catalog, t, query.filters_on(t))
            for t in self._tables
        }
        # A sequential scan's output: max(1, row_count * selectivity).
        self._filtered_rows = {t: self._scans[t].seq.rows for t in self._tables}

    def plan(self, access_paths: Dict[str, PlanNode]) -> PlanNode:
        """Find the cheapest join plan given per-relation access paths.

        Args:
            access_paths: Best unparameterized access path per table.

        Returns:
            The cheapest plan covering all tables in the query.

        Raises:
            ValueError: if the query references no tables.
        """
        n = len(self._tables)
        if n == 0:
            raise ValueError("query references no tables")
        if n == 1:
            return access_paths[self._tables[0]]

        best: Dict[int, PlanNode] = {}
        for i, table in enumerate(self._tables):
            best[1 << i] = access_paths[table]

        full = (1 << n) - 1
        for size in range(2, n + 1):
            for subset in _subsets_of_size(n, size):
                plan = self._best_for_subset(subset, best)
                if plan is not None:
                    best[subset] = plan
        if full not in best:
            # Disconnected join graph: fall back to a left-deep cartesian
            # chain over the connected components' best plans.
            return self._cartesian_fallback(best, n)
        return best[full]

    # ------------------------------------------------------------------
    def _best_for_subset(
        self, subset: int, best: Dict[int, PlanNode]
    ) -> Optional[PlanNode]:
        result: Optional[PlanNode] = None
        rows = self._subset_rows(subset)
        # Enumerate proper, non-empty splits; iterate left halves only
        # once via the standard submask trick.
        left = (subset - 1) & subset
        while left:
            right = subset ^ left
            if left in best and right in best:
                edges = self._edges_between(left, right)
                if edges:
                    for candidate in self._join_candidates(
                        best[left], best[right], edges, right, rows
                    ):
                        if result is None or candidate.cost < result.cost:
                            result = candidate
            left = (left - 1) & subset
        return result

    def _join_candidates(
        self,
        outer: PlanNode,
        inner: PlanNode,
        edges: List[JoinPredicate],
        inner_mask: int,
        rows: float,
    ) -> List[PlanNode]:
        params = self._catalog.params
        candidates: List[PlanNode] = []

        # Hash join: build on the smaller input.
        probe, build = (outer, inner) if outer.rows >= inner.rows else (inner, outer)
        build_pages = params.heap_pages(build.rows, 32)
        spill_factor = max(1.0, math.ceil(build_pages / params.hash_mem_pages))
        hash_cost = (
            probe.cost
            + build.cost
            + build.rows * params.cpu_tuple_cost * 1.5
            + probe.rows * params.cpu_tuple_cost
            + (probe.rows + build.rows) * len(edges) * params.cpu_operator_cost
            + (spill_factor - 1.0) * build_pages * 2.0 * params.seq_page_cost
        )
        candidates.append(
            HashJoinNode(rows=rows, cost=hash_cost, probe=probe, build=build, joins=edges)
        )

        # Index nested loop: inner must be one base relation with an index
        # on (one of) the join columns.
        inlj = self._index_nested_loop(outer, inner_mask, edges, rows)
        if inlj is not None:
            candidates.append(inlj)

        # Materialized nested loop (both inputs computed once).
        nl_cost = (
            outer.cost
            + inner.cost
            + outer.rows * inner.rows * len(edges) * params.cpu_operator_cost
            + outer.rows * inner.rows * params.cpu_tuple_cost * 0.1
        )
        candidates.append(
            NestedLoopNode(rows=rows, cost=nl_cost, outer=outer, inner=inner, joins=edges)
        )
        return candidates

    def _index_nested_loop(
        self,
        outer: PlanNode,
        inner_mask: int,
        edges: List[JoinPredicate],
        rows: float,
    ) -> Optional[NestedLoopNode]:
        if _popcount(inner_mask) != 1:
            return None
        inner_table = self._tables[inner_mask.bit_length() - 1]
        params = self._catalog.params
        best: Optional[NestedLoopNode] = None
        for edge in edges:
            if edge.left.table == inner_table:
                inner_col, outer_col = edge.left.column, edge.right
            elif edge.right.table == inner_table:
                inner_col, outer_col = edge.right.column, edge.left
            else:  # pragma: no cover - edges are pre-filtered
                continue
            scan = self._scans[inner_table]
            inner_path = parameterized_index_path(
                self._catalog,
                inner_table,
                scan.filters,
                inner_col,
                outer_col,
                self._config,
                scan,
            )
            if inner_path is None:
                continue
            cost = (
                outer.cost
                + outer.rows * inner_path.cost
                + outer.rows * params.cpu_tuple_cost
            )
            node = NestedLoopNode(
                rows=rows, cost=cost, outer=outer, inner=inner_path, joins=edges
            )
            if best is None or node.cost < best.cost:
                best = node
        return best

    def _edges_between(self, left: int, right: int) -> List[JoinPredicate]:
        edges = []
        for join in self._query.joins:
            li = self._index_of[join.left.table]
            ri = self._index_of[join.right.table]
            lbit, rbit = 1 << li, 1 << ri
            if (lbit & left and rbit & right) or (lbit & right and rbit & left):
                edges.append(join)
        return edges

    def _subset_rows(self, subset: int) -> float:
        rows = 1.0
        for i, table in enumerate(self._tables):
            if subset & (1 << i):
                rows *= self._filtered_rows[table]
        for join in self._query.joins:
            li = self._index_of[join.left.table]
            ri = self._index_of[join.right.table]
            if subset & (1 << li) and subset & (1 << ri):
                rows *= join_selectivity(self._catalog, join)
        return max(1.0, rows)

    def _cartesian_fallback(self, best: Dict[int, PlanNode], n: int) -> PlanNode:
        params = self._catalog.params
        covered = 0
        plan: Optional[PlanNode] = None
        # Greedily absorb the largest solved subsets first.
        for subset in sorted(best, key=_popcount, reverse=True):
            if subset & covered:
                continue
            piece = best[subset]
            if plan is None:
                plan = piece
            else:
                rows = plan.rows * piece.rows
                cost = (
                    plan.cost
                    + piece.cost
                    + rows * params.cpu_tuple_cost * 0.1
                )
                plan = NestedLoopNode(
                    rows=rows, cost=cost, outer=plan, inner=piece, joins=[]
                )
            covered |= subset
            if covered == (1 << n) - 1:
                break
        assert plan is not None
        return plan


def _subsets_of_size(n: int, size: int):
    """All bitmasks over ``n`` elements with ``size`` bits set."""
    subset = (1 << size) - 1
    limit = 1 << n
    while subset < limit:
        yield subset
        # Gosper's hack: next subset with the same popcount.
        low = subset & -subset
        ripple = subset + low
        subset = ripple | (((subset ^ ripple) >> 2) // low)


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


def uses_parameterized_inner(plan: PlanNode) -> bool:
    """Whether any nested loop in the plan drives a parameterized scan."""
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, NestedLoopNode) and isinstance(node.inner, IndexScanNode):
            if node.inner.parameterized_by is not None:
                return True
        stack.extend(node.children())
    return False
