"""Access path selection as it was before one cost per (scan, index).

``index_paths`` built an :class:`IndexScanNode` for every applicable
index in name order, and ``best_access_path`` kept the first strictly
cheaper one; ``_index_scan_cost`` read every row-count term and the lead
column's correlation from the catalog on each call.  They are kept here
verbatim as the reference ``repro.optimizer.access`` is held against
(``test_access_oracle.py``); nothing in ``src/`` imports them.  One
change: the sargable decomposition is derived afresh, with the body of
the ``TableScan.sargable`` of that time, instead of being read from the
scan, so nothing a retained scan holds can leak into the reference.

:func:`optimize_one_table` is ``Optimizer.optimize`` of that time for a
one-table query: the access path under the relevant configuration,
passed through ``JoinPlanner.plan``, finished by ``_finalize``, its
used indexes walked from the plan.
"""

from __future__ import annotations

from typing import List, Optional

from repro.engine.index import IndexDef
from repro.optimizer.access import (
    IndexConfig,
    TableScan,
    extract_for_index,
    table_scan,
)
from repro.optimizer.joins import JoinPlanner
from repro.optimizer.optimizer import OptimizationResult, relevant_config
from repro.optimizer.plan import IndexScanNode
from repro.optimizer.selectivity import operator_count


def index_paths(
    catalog,
    table: str,
    filters: List,
    config: IndexConfig,
    scan: Optional[TableScan] = None,
) -> List[IndexScanNode]:
    """All applicable index scan paths for ``table`` under ``config``.

    ``scan`` is the query's :class:`TableScan` for ``table`` when the
    caller holds one; ``filters`` must then be ``scan.filters``.
    """
    if scan is None:
        scan = table_scan(catalog, table, filters)
    rows = scan.seq.rows  # max(1, row_count * total_sel), whatever the path
    paths: List[IndexScanNode] = []
    for index in sorted(config, key=lambda ix: ix.name):
        if index.table != table:
            continue
        # The decomposition, as TableScan.sargable derived it.
        sarg = extract_for_index(index, scan.filters)
        if sarg is None:
            continue
        residual = [f for f in scan.filters if f not in sarg.consumed]
        index_sel = scan.selectivity(sarg.consumed)
        cost = _index_scan_cost(
            catalog, table, index, index_sel, sarg.num_lookups, residual
        )
        paths.append(
            IndexScanNode(
                rows=rows,
                cost=cost,
                table=table,
                index=index,
                lookup_value=sarg.lookup_value,
                range_low=sarg.range_low,
                range_high=sarg.range_high,
                residual=residual,
                in_values=sarg.in_values,
                low_inclusive=sarg.low_inclusive,
                high_inclusive=sarg.high_inclusive,
                prefix_values=sarg.prefix_values,
            )
        )
    return paths


def best_access_path(
    catalog,
    table: str,
    filters: List,
    config: IndexConfig,
    scan: Optional[TableScan] = None,
):
    """The cheapest access path for one relation.

    Considers the sequential scan and one index scan per applicable
    index in ``config``.  ``scan`` as for :func:`index_paths`.
    """
    if scan is None:
        scan = table_scan(catalog, table, filters)
    best = scan.seq
    for path in index_paths(catalog, table, filters, config, scan):
        if path.cost < best.cost:
            best = path
    return best


def _index_scan_cost(
    catalog,
    table: str,
    index: IndexDef,
    index_sel: float,
    num_lookups: int,
    residual: List,
) -> float:
    """Cost of an index scan fetching ``index_sel`` of the table.

    Components: B+tree descent per lookup, leaf-level traversal, heap
    fetches (correlation-interpolated between sequential and random), and
    CPU for index entries, heap tuples, and residual predicate evaluation.
    """
    params = catalog.params
    tdef = catalog.table(table)
    rows = tdef.row_count
    heap_pages = tdef.heap_pages(params)
    stats = catalog.stats(table, index.column)

    tuples = max(0.0, index_sel * rows)
    leaf_pages = params.index_pages(rows, index.key_width)
    height = params.index_height(leaf_pages)

    descent_io = num_lookups * height * params.random_page_cost
    leaf_walk = max(0.0, index_sel * leaf_pages - num_lookups) * params.seq_page_cost

    # A scan cannot fetch more distinct heap pages than exist; repeat
    # visits are assumed to hit the buffer cache (Mackert-Lohman style).
    pages_random = min(tuples, heap_pages)
    pages_seq = min(heap_pages, max(1.0, index_sel * heap_pages)) if tuples > 0 else 0.0
    c2 = stats.correlation * stats.correlation
    heap_io = (
        c2 * pages_seq * params.seq_page_cost
        + (1.0 - c2) * pages_random * params.random_page_cost
    )

    cpu = (
        tuples * params.cpu_index_tuple_cost
        + tuples * params.cpu_tuple_cost
        + tuples * operator_count(residual) * params.cpu_operator_cost
    )
    return descent_io + leaf_walk + heap_io + cpu


def crude_index_delta_cost(catalog, index: IndexDef, filters: List) -> float:
    """``Δcost(R, σ, I)`` from a fresh scan: the seq path's cost minus
    the index path's, 0 when the index is inapplicable or loses."""
    scan = table_scan(catalog, index.table, filters)
    paths = index_paths(catalog, index.table, filters, frozenset((index,)), scan)
    if not paths:
        return 0.0
    return max(0.0, scan.seq.cost - paths[0].cost)


def optimize_one_table(optimizer, query, config: IndexConfig) -> OptimizationResult:
    """``optimizer.optimize(query, config)`` for a one-table query, from
    nothing held."""
    catalog = optimizer.catalog
    (table,) = query.tables
    relevant = relevant_config(query, config)
    path = best_access_path(catalog, table, query.filters_on(table), relevant)
    plan = JoinPlanner(catalog, query, relevant).plan({table: path})
    plan = optimizer._finalize(query, plan)
    return OptimizationResult(plan=plan, cost=plan.cost, config=config)
