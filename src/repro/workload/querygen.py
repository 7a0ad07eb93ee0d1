"""Parameterized query generation.

A :class:`QueryDistribution` is the formal object the paper calls "the
current query distribution Q": a weighted mixture of templates, each of
which focuses on specific attributes with specific selectivity ranges.
Sampling a template yields a bound :class:`~repro.sql.ast.Query` whose
predicate literals are drawn so that the predicate hits the requested
selectivity under the catalog's statistics.

The *relevant indexes* of a distribution (the single-column indexes its
predicates can use) are exactly what COLT should discover; the
experiments size the storage budget relative to this set.
"""

from __future__ import annotations

import bisect
import dataclasses
import random
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.engine.datatypes import DataType
from repro.sql.ast import (
    AggFunc,
    Aggregate,
    BetweenPredicate,
    ColumnExpr,
    CompareOp,
    ComparisonPredicate,
    JoinPredicate,
    Query,
    SelectItem,
)

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef


@dataclasses.dataclass(frozen=True)
class PredicateSpec:
    """A selection-attribute focus: column plus a selectivity band.

    Attributes:
        table: Table of the focused attribute.
        column: The focused attribute (an index candidate).
        selectivity: (low, high) band the sampled predicate's selectivity
            is drawn from.  The paper's phases use "selective" (< 2%) and
            "non-selective" (>= 2%) bands.
    """

    table: str
    column: str
    selectivity: Tuple[float, float] = (0.001, 0.02)


@dataclasses.dataclass(frozen=True)
class JoinSpec:
    """An optional join from the template's primary table to another."""

    table: str
    left_column: str
    right_column: str
    predicate: Optional[PredicateSpec] = None


@dataclasses.dataclass(frozen=True)
class QueryTemplate:
    """One query shape within a distribution.

    Attributes:
        predicates: Selection predicates on the primary table (the first
            predicate's table is the primary table).
        join: Optional join to a second table.
        aggregate: Whether the query computes COUNT(*) instead of
            projecting columns.
        weight: Relative sampling weight within the distribution.
    """

    predicates: Tuple[PredicateSpec, ...]
    join: Optional[JoinSpec] = None
    aggregate: bool = False
    weight: float = 1.0

    @property
    def table(self) -> str:
        """The primary table."""
        return self.predicates[0].table


@dataclasses.dataclass(frozen=True)
class QueryDistribution:
    """A weighted mixture of query templates.

    Attributes:
        name: Label used in experiment traces.
        templates: The mixture components.
    """

    name: str
    templates: Tuple[QueryTemplate, ...]
    #: Running template weights in template order, and their ``sum``:
    #: a draw bisects them instead of re-summing every weight.
    _running: List[float] = dataclasses.field(init=False, repr=False, compare=False)
    _total: float = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        running: List[float] = []
        acc = 0.0
        for template in self.templates:
            acc += template.weight
            running.append(acc)
        object.__setattr__(self, "_running", running)
        object.__setattr__(self, "_total", sum(t.weight for t in self.templates))

    def sample(self, catalog: Catalog, rng: random.Random) -> Query:
        """Draw one query from the distribution."""
        return build_query(self.choose_template(rng), catalog, rng)

    def choose_template(self, rng: random.Random) -> QueryTemplate:
        """The template a uniform point on ``[0, total weight]`` falls under.

        The first template whose running weight reaches the point, the
        last one if rounding puts the point past every running weight.
        Weights are non-negative, so the running weights are sorted.
        """
        point = rng.uniform(0.0, self._total)
        i = bisect.bisect_left(self._running, point)
        return self.templates[i] if i < len(self._running) else self.templates[-1]

    def relevant_indexes(self, catalog: Catalog) -> List[IndexDef]:
        """The single-column indexes this distribution makes relevant.

        Includes indexes on selection attributes and on the inner join
        columns (usable by index nested-loop joins).
        """
        seen = {}
        for template in self.templates:
            for pred in template.predicates:
                seen[(pred.table, pred.column)] = True
            if template.join is not None:
                seen[(template.join.table, template.join.right_column)] = True
                if template.join.predicate is not None:
                    joined = template.join.predicate
                    seen[(joined.table, joined.column)] = True
        return [catalog.index_for(t, c) for (t, c) in sorted(seen)]


def build_query(
    template: QueryTemplate, catalog: Catalog, rng: random.Random
) -> Query:
    """Materialize one bound query from a template."""
    filters = [
        _draw_predicate(spec, catalog, rng) for spec in template.predicates
    ]
    tables = [template.table]
    joins: List[JoinPredicate] = []
    if template.join is not None:
        join = template.join
        tables.append(join.table)
        joins.append(
            JoinPredicate(
                left=ColumnExpr(join.left_column, template.table),
                right=ColumnExpr(join.right_column, join.table),
            )
        )
        if join.predicate is not None:
            filters.append(_draw_predicate(join.predicate, catalog, rng))

    if template.aggregate:
        select = [SelectItem(expr=Aggregate(func=AggFunc.COUNT, arg=None))]
    else:
        first = template.predicates[0]
        select = [SelectItem(expr=ColumnExpr(first.column, first.table))]
        extra = _extra_projection(template, catalog, rng)
        if extra is not None:
            select.append(SelectItem(expr=extra))
    return Query(tables=tables, select=select, filters=filters, joins=joins)


def _extra_projection(
    template: QueryTemplate, catalog: Catalog, rng: random.Random
) -> Optional[ColumnExpr]:
    """A second projected column, for output realism (no plan effect)."""
    columns = catalog.table(template.table).columns
    if len(columns) < 2:
        return None
    choice = rng.choice(columns)
    return ColumnExpr(choice.name, template.table)


def _draw_predicate(spec: PredicateSpec, catalog: Catalog, rng: random.Random):
    """Draw a predicate on the focus column with the target selectivity."""
    stats = catalog.stats(spec.table, spec.column)
    dtype = catalog.table(spec.table).column(spec.column).dtype
    column = ColumnExpr(spec.column, spec.table)
    target = rng.uniform(*spec.selectivity)

    if dtype is DataType.TEXT:
        # Text focus columns have small CHOICE domains; equality gives
        # selectivity 1/|domain| regardless of the requested band.
        value = _text_value(stats, rng)
        return ComparisonPredicate(column=column, op=CompareOp.EQ, value=value)

    if target <= 1.5 / max(1.0, stats.n_distinct):
        value = _numeric_point(stats, dtype, rng)
        return ComparisonPredicate(column=column, op=CompareOp.EQ, value=value)

    lo, hi = _numeric_range(stats, dtype, target, rng)
    return BetweenPredicate(column=column, low=lo, high=hi)


def _numeric_point(stats, dtype: DataType, rng: random.Random):
    if dtype is DataType.FLOAT:
        return rng.uniform(stats.min_value, stats.max_value)
    return rng.randint(int(stats.min_value), int(stats.max_value))


def _numeric_range(stats, dtype: DataType, target: float, rng: random.Random):
    span = stats.max_value - stats.min_value
    width = target * span
    low = stats.min_value + rng.uniform(0.0, max(0.0, span - width))
    high = low + width
    if dtype is not DataType.FLOAT:
        low = int(round(low))
        high = max(low, int(round(high)))
    return low, high


def _text_value(stats, rng: random.Random) -> str:
    # Without access to the concrete domain, sample between the stats
    # bounds; CHOICE stats carry real values as bounds so min/max are
    # always valid members.
    return rng.choice([stats.min_value, stats.max_value])
