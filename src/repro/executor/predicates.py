"""Runtime predicate evaluation over executor rows.

Rows are dictionaries keyed by ``(table, column)``.  These evaluators are
shared by scans (filter application), joins (equi-key comparison), and
tests that cross-check index plans against sequential plans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from repro.sql.ast import BetweenPredicate, CompareOp, ComparisonPredicate, InPredicate

if TYPE_CHECKING:
    from repro.sql.ast import JoinPredicate

Row = Dict[Tuple[str, str], object]


def column_value(row: Row, column) -> object:
    """Fetch a bound column's value from a row.

    Raises:
        KeyError: if the column is not present in the row.
    """
    return row[(column.table, column.column)]


def eval_filter(pred, row: Row) -> bool:
    """Evaluate one single-table predicate against a row.

    Raises:
        TypeError: for unsupported predicate types.
    """
    value = column_value(row, pred.column)
    if isinstance(pred, ComparisonPredicate):
        return _compare(pred.op, value, pred.value)
    if isinstance(pred, BetweenPredicate):
        return pred.low <= value <= pred.high
    if isinstance(pred, InPredicate):
        return value in pred.values
    raise TypeError(f"unsupported predicate type {type(pred).__name__}")


def eval_filters(preds, row: Row) -> bool:
    """Evaluate a conjunction of predicates."""
    return all(eval_filter(p, row) for p in preds)


def eval_join(join: JoinPredicate, row: Row) -> bool:
    """Evaluate an equi-join predicate against a combined row."""
    return column_value(row, join.left) == column_value(row, join.right)


def _compare(op: CompareOp, left, right) -> bool:
    if op is CompareOp.EQ:
        return left == right
    if op is CompareOp.NE:
        return left != right
    if op is CompareOp.LT:
        return left < right
    if op is CompareOp.LE:
        return left <= right
    if op is CompareOp.GT:
        return left > right
    return left >= right
