"""Semantic analysis: bind a parsed query against the catalog.

Binding resolves unqualified column references to their tables, validates
that every referenced table and column exists, checks type compatibility
of predicates, and coerces literals to the engine representation (e.g.
date strings to day ordinals).  Everything downstream -- optimizer,
executor, COLT -- assumes bound queries.

AST nodes are frozen, so the bound query shares every node binding does
not change with its input: an already-qualified column, the select item
or ordering key around it, a predicate whose coerced literals are the
objects it already held.  Only the ``Query`` and its lists are always new.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Dict

from repro.engine.datatypes import coerce, comparable
from repro.sql.ast import (
    Aggregate,
    BetweenPredicate,
    ColumnExpr,
    ComparisonPredicate,
    InPredicate,
    JoinPredicate,
    OrderItem,
    Query,
    SelectItem,
)

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog, TableDef
    from repro.engine.datatypes import DataType


class BindError(ValueError):
    """Raised when a query references unknown objects or mismatched types."""


def bind_query(query: Query, catalog: Catalog) -> Query:
    """Return a fully-bound copy of ``query``.

    Raises:
        BindError: on unknown tables/columns, ambiguous references, or
            type-incompatible predicates.
    """
    return _Binder(query, catalog).bind()


class _Binder:
    __slots__ = ("_query", "_tables")

    def __init__(self, query: Query, catalog: Catalog) -> None:
        self._query = query
        # The FROM list, resolved once: a column lookup is one dict read.
        self._tables: Dict[str, TableDef] = {}
        for name in query.tables:
            try:
                self._tables[name] = catalog.table(name)
            except KeyError:
                raise BindError(f"unknown table {name!r}") from None

    def bind(self) -> Query:
        query = self._query
        return Query(
            tables=list(query.tables),
            select=[self._bind_item(i) for i in query.select],
            filters=[self._bind_filter(f) for f in query.filters],
            joins=[self._bind_join(j) for j in query.joins],
            group_by=[self._bind_column(c) for c in query.group_by],
            order_by=[self._bind_order(o) for o in query.order_by],
            limit=query.limit,
            text=query.text,
        )

    def _bind_column(self, col: ColumnExpr) -> ColumnExpr:
        if col.table is not None:
            table = self._tables.get(col.table)
            if table is None:
                raise BindError(f"table {col.table!r} not in FROM clause")
            if not table.has_column(col.column):
                raise BindError(f"no column {col.column!r} in table {col.table!r}")
            return col
        owners = [
            t for t in self._query.tables if self._tables[t].has_column(col.column)
        ]
        if not owners:
            raise BindError(f"unknown column {col.column!r}")
        if len(owners) > 1:
            raise BindError(
                f"ambiguous column {col.column!r}: in tables {', '.join(owners)}"
            )
        return ColumnExpr(column=col.column, table=owners[0])

    def _dtype(self, col: ColumnExpr) -> DataType:
        return self._tables[col.table].column(col.column).dtype

    def _bind_item(self, item: SelectItem) -> SelectItem:
        expr = item.expr
        if isinstance(expr, Aggregate):
            if expr.arg is None:
                return item
            arg = self._bind_column(expr.arg)
            if arg is expr.arg:
                return item
            return SelectItem(Aggregate(expr.func, arg), item.alias)
        column = self._bind_column(expr)
        return item if column is expr else SelectItem(column, item.alias)

    def _bind_order(self, item: OrderItem) -> OrderItem:
        column = self._bind_column(item.column)
        return item if column is item.column else OrderItem(column, item.descending)

    def _bind_filter(self, pred):
        column = self._bind_column(pred.column)
        dtype = self._dtype(column)
        same = column is pred.column
        try:
            if isinstance(pred, ComparisonPredicate):
                value = coerce(pred.value, dtype)
                if same and value is pred.value:
                    return pred
                return ComparisonPredicate(column, pred.op, value)
            if isinstance(pred, BetweenPredicate):
                low = coerce(pred.low, dtype)
                high = coerce(pred.high, dtype)
                if same and low is pred.low and high is pred.high:
                    return pred
                return BetweenPredicate(column, low, high)
            if isinstance(pred, InPredicate):
                values = tuple(coerce(v, dtype) for v in pred.values)
                if same and all(map(operator.is_, values, pred.values)):
                    return pred
                return InPredicate(column, values)
        except (TypeError, ValueError, OverflowError) as exc:
            # The wrong type, text that is no date, an integer no float holds.
            raise BindError(f"type error in predicate on {column}: {exc}") from exc
        raise BindError(f"unsupported predicate type {type(pred).__name__}")

    def _bind_join(self, join: JoinPredicate) -> JoinPredicate:
        left = self._bind_column(join.left)
        right = self._bind_column(join.right)
        if left.table == right.table:
            raise BindError(f"join predicate {join} references a single table")
        if not comparable(self._dtype(left), self._dtype(right)):
            raise BindError(
                f"join predicate {join} compares incompatible types"
            )
        if left is join.left and right is join.right:
            return join
        return JoinPredicate(left, right)
