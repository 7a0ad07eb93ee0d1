"""Predicate selectivity estimation.

Selectivities come from per-column statistics (histograms when available,
uniform interpolation otherwise) and are combined under the attribute
independence assumption, as in the Selinger model the paper's cost
formulas reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List

from repro.sql.ast import (
    BetweenPredicate,
    CompareOp,
    ComparisonPredicate,
    InPredicate,
)

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog

# Default selectivity for inequality (<>) predicates when stats are thin.
DEFAULT_NE_SELECTIVITY = 0.995
MIN_SELECTIVITY = 1e-9


def predicate_selectivity(catalog: Catalog, pred) -> float:
    """Selectivity of one single-table predicate in [0, 1].

    Args:
        catalog: Catalog providing column statistics.
        pred: A bound filter predicate (comparison, BETWEEN, or IN).

    Raises:
        TypeError: for unsupported predicate types.
    """
    if not isinstance(pred, (ComparisonPredicate, BetweenPredicate, InPredicate)):
        raise TypeError(f"unsupported predicate type {type(pred).__name__}")
    column = pred.column
    stats = catalog.stats(column.table, column.column)

    if isinstance(pred, ComparisonPredicate):
        op = pred.op
        value = pred.value
        if op is CompareOp.EQ:
            sel = stats.eq_selectivity(value)
        elif op is CompareOp.NE:
            sel = max(0.0, 1.0 - stats.eq_selectivity(value))
            sel = min(sel, DEFAULT_NE_SELECTIVITY)
        elif op in (CompareOp.LT, CompareOp.LE):
            sel = stats.range_selectivity(None, value)
            if op is CompareOp.LT:
                sel = max(0.0, sel - stats.eq_selectivity(value))
        else:  # GT or GE
            sel = stats.range_selectivity(value, None)
            if op is CompareOp.GT:
                sel = max(0.0, sel - stats.eq_selectivity(value))
        return _clamp(sel)

    if isinstance(pred, BetweenPredicate):
        return _clamp(stats.range_selectivity(pred.low, pred.high))

    sel = sum(stats.eq_selectivity(v) for v in set(pred.values))
    return _clamp(sel)


def combined_selectivity(catalog: Catalog, preds: Iterable) -> float:
    """Selectivity of a conjunction of predicates (independence)."""
    return conjunction(predicate_selectivity(catalog, pred) for pred in preds)


def conjunction(selectivities: Iterable[float]) -> float:
    """Selectivity of a conjunction, given each conjunct's (independence)."""
    sel = 1.0
    for each in selectivities:
        sel *= each
    return _clamp(sel) if sel < 1.0 else 1.0


def join_selectivity(catalog: Catalog, join) -> float:
    """Selectivity of one equi-join predicate.

    Uses the classic ``1 / max(ndistinct_left, ndistinct_right)`` rule.
    """
    left = catalog.stats(join.left.table, join.left.column)
    right = catalog.stats(join.right.table, join.right.column)
    denom = max(left.n_distinct, right.n_distinct, 1.0)
    return 1.0 / denom


def operator_count(preds: List) -> int:
    """Number of primitive comparison operations in a predicate list.

    Used to charge CPU operator cost for filter evaluation; IN lists count
    one comparison per element and BETWEEN counts two.
    """
    total = 0
    for pred in preds:
        if isinstance(pred, InPredicate):
            total += len(pred.values)
        elif isinstance(pred, BetweenPredicate):
            total += 2
        else:
            total += 1
    return total


def _clamp(sel: float) -> float:
    return min(1.0, max(MIN_SELECTIVITY, sel))
