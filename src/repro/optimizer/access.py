"""Per-relation access path selection.

For each base table the optimizer considers a sequential scan and one
index scan per applicable materialized (or hypothetical) index, picking
the cheapest.  The index scan cost model follows PostgreSQL's: B+tree
descent, leaf traversal, and heap fetches whose randomness is
interpolated by the column's physical-order correlation.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.engine.index import IndexDef
from repro.optimizer.plan import IndexScanNode, SeqScanNode
from repro.optimizer.selectivity import (
    conjunction,
    operator_count,
    predicate_selectivity,
)
from repro.sql.ast import (
    BetweenPredicate,
    CompareOp,
    ComparisonPredicate,
    InPredicate,
)

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.optimizer.plan import PlanNode

IndexConfig = FrozenSet[IndexDef]


@dataclasses.dataclass
class _Sargable:
    """Predicates decomposed for index use.

    For a single-column index either ``lookup_value``, ``in_values``, or
    the range bounds are set.  For a composite index, ``prefix_values``
    holds the values of equality predicates on the leading key columns
    (in key order); the remaining fields then describe the predicate on
    the first non-equality key column, if any.
    """

    consumed: List
    lookup_value: object = None
    in_values: Optional[Tuple] = None
    range_low: object = None
    range_high: object = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    prefix_values: Tuple = ()

    @property
    def num_lookups(self) -> int:
        if self.lookup_value is not None:
            return 1
        if self.in_values is not None:
            return len(self.in_values)
        return 1


#: What :meth:`TableScan.sargable` holds for one index: the filters'
#: decomposition, the residual filters and the terms the scan is priced
#: from beside the row count (:func:`_index_scan_cost`'s last four
#: arguments: the selectivity of the consumed filters, the number of
#: lookups, the residual's operator count and the squared correlation of
#: the index's lead column, a filtered column) -- or None when the index
#: cannot serve the filters.
SargableUse = Optional[Tuple[_Sargable, List, Tuple[float, int, int, float]]]

_UNSEEN = object()
_by_name = operator.attrgetter("name")


@dataclasses.dataclass
class TableScan:
    """What one query's filters on one table cost, whatever the index.

    Evaluated once per (query, table), held in the query's
    :class:`~repro.optimizer.optimizer.PlanCache`, and read by every
    access path, what-if probe and crude benefit of that query.

    Everything but ``seq`` and ``costs`` is a function of the query and
    the table's column statistics; those two also read the row count and
    are what :meth:`reprice` replaces.

    Attributes:
        filters: The query's filters on the table.
        ops: ``operator_count(filters)``.
        sel_of: Selectivity of each filter, keyed by the ``id`` of the
            predicate object in ``filters`` (which keeps it alive).
        total_sel: Combined selectivity of all the filters.
        seq: The sequential scan path, every index path's baseline.
        sargs: Each index's :data:`SargableUse` seen so far.
        costs: Each index's scan cost priced so far under the current
            row count (None where the index cannot serve the filters):
            the one number the access path, every what-if probe and the
            crude pass read.
    """

    filters: List
    ops: int
    sel_of: Dict[int, float]
    total_sel: float
    seq: SeqScanNode
    sargs: Dict[IndexDef, SargableUse] = dataclasses.field(default_factory=dict)
    costs: Dict[IndexDef, Optional[float]] = dataclasses.field(default_factory=dict)

    def selectivity(self, preds: Iterable) -> float:
        """Combined selectivity of ``preds``, objects out of ``filters``."""
        return conjunction(self.sel_of[id(pred)] for pred in preds)

    def sargable(self, catalog: Catalog, index: IndexDef) -> SargableUse:
        """How ``index`` serves the filters, decomposed once per index."""
        use = self.sargs.get(index, _UNSEEN)
        if use is _UNSEEN:
            sarg = extract_for_index(index, self.filters)
            if sarg is None:
                use = None
            else:
                residual = [f for f in self.filters if f not in sarg.consumed]
                correlation = catalog.stats(index.table, index.column).correlation
                terms = (
                    self.selectivity(sarg.consumed),
                    sarg.num_lookups,
                    operator_count(residual),
                    correlation * correlation,
                )
                use = (sarg, residual, terms)
            self.sargs[index] = use
        return use

    def index_cost(self, catalog: Catalog, index: IndexDef) -> Optional[float]:
        """The cost of scanning through ``index``, or None when it cannot
        serve the filters; priced once per index per row count."""
        cost = self.costs.get(index, _UNSEEN)
        if cost is _UNSEEN:
            use = self.sargable(catalog, index)
            cost = None if use is None else _index_scan_cost(catalog, index, *use[2])
            self.costs[index] = cost
        return cost

    def reprice(self, catalog: Catalog) -> None:
        """Re-derive ``seq`` and drop ``costs`` (a row move)."""
        table = self.seq.table
        self.seq = _seq_scan(catalog, table, self.filters, self.ops, self.total_sel)
        self.costs.clear()


def table_scan(catalog: Catalog, table: str, filters: List) -> TableScan:
    """Evaluate each filter's selectivity and the sequential scan path."""
    sels = [predicate_selectivity(catalog, pred) for pred in filters]
    sel = conjunction(sels)
    ops = operator_count(filters)
    seq = _seq_scan(catalog, table, filters, ops, sel)
    sel_of = dict(zip(map(id, filters), sels))
    return TableScan(filters=filters, ops=ops, sel_of=sel_of, total_sel=sel, seq=seq)


def _seq_scan(
    catalog: Catalog, table: str, filters: List, ops: int, sel: float
) -> SeqScanNode:
    """The sequential scan of ``table`` under ``filters`` (``ops``
    operators) of combined selectivity ``sel``."""
    params = catalog.params
    tdef = catalog.table(table)
    rows = tdef.row_count
    pages = tdef.heap_pages(params)
    cost = (
        pages * params.seq_page_cost
        + rows * params.cpu_tuple_cost
        + rows * ops * params.cpu_operator_cost
    )
    return SeqScanNode(rows=max(1.0, rows * sel), cost=cost, table=table, filters=filters)


def seq_scan_path(catalog: Catalog, table: str, filters: List) -> SeqScanNode:
    """Build a sequential scan path with its cost and cardinality."""
    return table_scan(catalog, table, filters).seq


def best_access_path(
    catalog: Catalog,
    table: str,
    filters: List,
    config: IndexConfig,
    scan: Optional[TableScan] = None,
) -> PlanNode:
    """The cheapest access path for one relation.

    Compares the sequential scan with the cost of each applicable index
    in ``config``, in name order with a strict ``<`` (the first of
    equally cheap indexes wins), and builds a node for the winner alone.
    ``scan`` is the query's :class:`TableScan` for ``table`` when the
    caller holds one; ``filters`` must then be ``scan.filters``.
    """
    if scan is None:
        scan = table_scan(catalog, table, filters)
    best, best_cost = None, scan.seq.cost
    for index in sorted(config, key=_by_name):
        if index.table == table:
            cost = scan.index_cost(catalog, index)
            if cost is not None and cost < best_cost:
                best, best_cost = index, cost
    if best is None:
        return scan.seq
    sarg, residual, _ = scan.sargs[best]
    return IndexScanNode(
        rows=scan.seq.rows,  # max(1, row_count * total_sel), whatever the path
        cost=best_cost,
        table=table,
        index=best,
        lookup_value=sarg.lookup_value,
        range_low=sarg.range_low,
        range_high=sarg.range_high,
        residual=residual,
        in_values=sarg.in_values,
        low_inclusive=sarg.low_inclusive,
        high_inclusive=sarg.high_inclusive,
        prefix_values=sarg.prefix_values,
    )


def parameterized_index_path(
    catalog: Catalog,
    table: str,
    filters: List,
    inner_column: str,
    outer_column,
    config: IndexConfig,
    scan: Optional[TableScan] = None,
) -> Optional[IndexScanNode]:
    """Inner side of an index nested-loop join, if an index permits it.

    The returned node's ``cost`` and ``rows`` are *per outer tuple* --
    the join node multiplies them by the outer cardinality.

    Args:
        catalog: Catalog with statistics.
        table: Inner relation.
        filters: Inner relation's single-table filters (become residual).
        inner_column: Join column on the inner relation.
        outer_column: The outer :class:`~repro.sql.ast.ColumnExpr`
            supplying lookup keys at run time.
        config: Available indexes.
        scan: As for :func:`best_access_path`.

    Returns:
        A parameterized index scan, or None if no index on the join
        column is available in ``config``.
    """
    # min-by-name rather than next(): ``config`` is a frozenset, and when
    # several indexes lead on the join column the pick must not depend on
    # hash order.
    matches = [
        ix for ix in config if ix.table == table and ix.column == inner_column
    ]
    if not matches:
        return None
    index = min(matches, key=lambda ix: ix.name)
    tdef = catalog.table(table)
    stats = catalog.stats(table, inner_column)
    join_sel = 1.0 / max(1.0, stats.n_distinct)
    if scan is None:
        scan = table_scan(catalog, table, filters)
    c2 = stats.correlation * stats.correlation
    cost = _index_scan_cost(catalog, index, join_sel, 1, operator_count(filters), c2)
    rows = max(1e-6, tdef.row_count * join_sel * scan.total_sel)
    return IndexScanNode(
        rows=rows,
        cost=cost,
        table=table,
        index=index,
        residual=filters,
        parameterized_by=outer_column,
    )


def _index_scan_cost(
    catalog: Catalog,
    index: IndexDef,
    index_sel: float,
    num_lookups: int,
    residual_ops: int,
    c2: float,
) -> float:
    """Cost of an index scan fetching ``index_sel`` of the table.

    Components: B+tree descent per lookup, leaf-level traversal, heap
    fetches (interpolated between sequential and random by ``c2``, the
    squared correlation of the index's lead column), and CPU for index
    entries, heap tuples, and evaluating the ``residual_ops`` operators of
    the residual predicates.  The row-count terms come from the catalog's
    entry for ``index``.
    """
    rows, params, _, _, leaf_pages, height, heap_pages = catalog.index_costing(index)

    tuples = max(0.0, index_sel * rows)

    descent_io = num_lookups * height * params.random_page_cost
    leaf_walk = max(0.0, index_sel * leaf_pages - num_lookups) * params.seq_page_cost

    # A scan cannot fetch more distinct heap pages than exist; repeat
    # visits are assumed to hit the buffer cache (Mackert-Lohman style).
    pages_random = min(tuples, heap_pages)
    pages_seq = min(heap_pages, max(1.0, index_sel * heap_pages)) if tuples > 0 else 0.0
    heap_io = (
        c2 * pages_seq * params.seq_page_cost
        + (1.0 - c2) * pages_random * params.random_page_cost
    )

    cpu = (
        tuples * params.cpu_index_tuple_cost
        + tuples * params.cpu_tuple_cost
        + tuples * residual_ops * params.cpu_operator_cost
    )
    return descent_io + leaf_walk + heap_io + cpu


def extract_for_index(index: IndexDef, filters: List) -> Optional[_Sargable]:
    """Decompose the filters into index-usable form for any index.

    Single-column indexes use the classic eq > IN > range preference.
    Composite indexes consume equality predicates along the key prefix
    (each extending ``prefix_values``), then at most one more predicate
    on the next key column: an equality (extending the prefix further),
    an IN list (only when it lands on the last key column, where it
    becomes multiple full-key lookups), or a range.  Returns None when
    the leading key column has no usable predicate.
    """
    if not index.is_composite:
        return _extract_sargable(index.column, filters)

    columns = index.columns
    prefix: List = []
    consumed: List = []
    for position, column in enumerate(columns):
        eq = next(
            (
                f
                for f in filters
                if isinstance(f, ComparisonPredicate)
                and f.column.column == column
                and f.op is CompareOp.EQ
                and f not in consumed
            ),
            None,
        )
        if eq is not None:
            prefix.append(eq.value)
            consumed.append(eq)
            continue
        # First non-equality key column: try IN (last column only) or a
        # range, then stop descending the key.
        tail = _extract_sargable(column, [f for f in filters if f not in consumed])
        if tail is None:
            break
        if tail.in_values is not None and position != len(columns) - 1:
            break  # IN mid-key cannot be turned into full-key lookups
        if tail.lookup_value is not None:  # pragma: no cover - eq handled above
            break
        return _Sargable(
            consumed=consumed + tail.consumed,
            in_values=tail.in_values,
            range_low=tail.range_low,
            range_high=tail.range_high,
            low_inclusive=tail.low_inclusive,
            high_inclusive=tail.high_inclusive,
            prefix_values=tuple(prefix),
        )
    if not prefix:
        return None
    if len(prefix) == len(columns):
        # Full-key equality: a single point lookup.
        return _Sargable(
            consumed=consumed,
            lookup_value=prefix[-1],
            prefix_values=tuple(prefix[:-1]),
        )
    return _Sargable(consumed=consumed, prefix_values=tuple(prefix))


def _extract_sargable(column: str, filters: List) -> Optional[_Sargable]:
    """Decompose the filters on ``column`` into index-usable form.

    Preference order: a point lookup (EQ) beats an IN list beats a range.
    Returns None if no filter on the column is sargable.
    """
    eq_pred = None
    in_pred = None
    range_preds = []
    for pred in filters:
        if pred.column.column != column:
            continue
        if isinstance(pred, ComparisonPredicate):
            if pred.op is CompareOp.EQ and eq_pred is None:
                eq_pred = pred
            elif pred.op in (CompareOp.LT, CompareOp.LE, CompareOp.GT, CompareOp.GE):
                range_preds.append(pred)
        elif isinstance(pred, BetweenPredicate):
            range_preds.append(pred)
        elif isinstance(pred, InPredicate) and in_pred is None:
            in_pred = pred

    if eq_pred is not None:
        return _Sargable(consumed=[eq_pred], lookup_value=eq_pred.value)
    if in_pred is not None:
        return _Sargable(consumed=[in_pred], in_values=tuple(in_pred.values))
    if not range_preds:
        return None

    sarg = _Sargable(consumed=[])
    for pred in range_preds:
        if isinstance(pred, BetweenPredicate):
            sarg = _tighten(sarg, pred.low, True, is_low=True)
            sarg = _tighten(sarg, pred.high, True, is_low=False)
        elif pred.op in (CompareOp.GT, CompareOp.GE):
            sarg = _tighten(sarg, pred.value, pred.op is CompareOp.GE, is_low=True)
        else:
            sarg = _tighten(sarg, pred.value, pred.op is CompareOp.LE, is_low=False)
        sarg.consumed.append(pred)
    if sarg.range_low is None and sarg.range_high is None:
        return None
    return sarg


def _tighten(sarg: _Sargable, bound, inclusive: bool, is_low: bool) -> _Sargable:
    if is_low:
        if sarg.range_low is None or bound > sarg.range_low or (
            bound == sarg.range_low and not inclusive
        ):
            sarg.range_low = bound
            sarg.low_inclusive = inclusive
    else:
        if sarg.range_high is None or bound < sarg.range_high or (
            bound == sarg.range_high and not inclusive
        ):
            sarg.range_high = bound
            sarg.high_inclusive = inclusive
    return sarg


def crude_index_delta_cost(
    catalog: Catalog,
    index: IndexDef,
    filters: List,
    scan: Optional[TableScan] = None,
) -> float:
    """Crude gain of evaluating the filters with ``index`` vs. a seq scan.

    This is the paper's ``Δcost(R, σ, I)``: standard cost formulas, no
    optimizer invocation.  Returns 0 when the index is inapplicable or
    does not beat the sequential scan.  ``scan`` as for
    :func:`best_access_path`: one baseline, and one index cost, for every
    index mined from a query.
    """
    if scan is None:
        scan = table_scan(catalog, index.table, filters)
    cost = scan.index_cost(catalog, index)
    if cost is None:
        return 0.0
    return max(0.0, scan.seq.cost - cost)
