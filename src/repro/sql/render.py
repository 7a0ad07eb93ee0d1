"""Render analyzed queries back to SQL text.

The inverse of the parser, up to normalization: rendering a bound query
and re-parsing it yields a structurally identical query.  Used by
logging/tracing (queries in experiment traces are stored as text), by
examples, and by round-trip property tests that pin the parser and the
renderer against each other.
"""

from __future__ import annotations

import datetime
from typing import TYPE_CHECKING, List, Optional

from repro.engine.datatypes import DataType, ordinal_to_date
from repro.sql.ast import BetweenPredicate, ComparisonPredicate, InPredicate

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.sql.ast import ColumnExpr, Query, SelectItem


def render_query(query: Query, catalog: Optional[Catalog] = None) -> str:
    """Render a query as SQL text.

    Args:
        query: A (preferably bound) query.
        catalog: When given, DATE-typed literals are rendered as ISO
            date strings instead of raw day ordinals, which reads better
            in logs.  Without a catalog all literals render by value.

    Returns:
        A SQL string the package's own parser accepts.
    """
    parts = [f"select {_render_select(query.select)}"]
    parts.append("from " + ", ".join(query.tables))

    conjuncts = [_render_filter(f, catalog) for f in query.filters]
    conjuncts += [f"{j.left} = {j.right}" for j in query.joins]
    if conjuncts:
        parts.append("where " + " and ".join(conjuncts))

    if query.group_by:
        parts.append("group by " + ", ".join(str(c) for c in query.group_by))
    if query.order_by:
        keys = [
            f"{item.column}{' desc' if item.descending else ''}"
            for item in query.order_by
        ]
        parts.append("order by " + ", ".join(keys))
    if query.limit is not None:
        parts.append(f"limit {query.limit}")
    return " ".join(parts)


def _render_select(items: List[SelectItem]) -> str:
    if not items:
        return "*"
    rendered = []
    for item in items:
        text = str(item.expr)
        if item.alias:
            text += f" as {item.alias}"
        rendered.append(text)
    return ", ".join(rendered)


def _render_filter(pred, catalog: Optional[Catalog]) -> str:
    column = pred.column
    if isinstance(pred, ComparisonPredicate):
        return f"{column} {pred.op.value} {_literal(pred.value, column, catalog)}"
    if isinstance(pred, BetweenPredicate):
        lo = _literal(pred.low, column, catalog)
        hi = _literal(pred.high, column, catalog)
        return f"{column} between {lo} and {hi}"
    if isinstance(pred, InPredicate):
        inner = ", ".join(_literal(v, column, catalog) for v in pred.values)
        return f"{column} in ({inner})"
    raise TypeError(f"unsupported predicate type {type(pred).__name__}")


def _literal(value, column: ColumnExpr, catalog: Optional[Catalog]) -> str:
    if catalog is not None and column.table is not None:
        try:
            dtype = catalog.table(column.table).column(column.column).dtype
        except KeyError:
            dtype = None
        if dtype is DataType.DATE and isinstance(value, int):
            return f"'{ordinal_to_date(value).isoformat()}'"
    if isinstance(value, str):
        # Standard SQL: a quote inside a string literal is written twice.
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, datetime.date):  # pragma: no cover - defensive
        return f"'{value.isoformat()}'"
    if isinstance(value, float):
        return repr(value)
    return str(value)
