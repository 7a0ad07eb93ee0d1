"""Pipeline operators: sort, aggregate, project, limit."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

from repro.executor.predicates import column_value
from repro.sql.ast import AggFunc, Aggregate

if TYPE_CHECKING:
    from repro.executor.predicates import Row
    from repro.optimizer.plan import AggregateNode, LimitNode, ProjectNode, SortNode
    from repro.sql.ast import SelectItem


def sort_rows(node: SortNode, source: Iterator[Row]) -> Iterator[Row]:
    """Full sort honoring per-key ASC/DESC.

    Implemented as a stable multi-pass sort from the least significant
    key to the most significant, so mixed directions are handled without
    key transformation tricks (values may be strings).
    """
    rows = list(source)
    for item in reversed(node.keys):
        rows.sort(
            key=lambda r, c=item.column: column_value(r, c),
            reverse=item.descending,
        )
    return iter(rows)


def limit_rows(node: LimitNode, source: Iterator[Row]) -> Iterator[Row]:
    """Stop after the node's row limit."""
    return itertools.islice(source, node.limit)


def project_rows(node: ProjectNode, source: Iterator[Row]) -> Iterator[Tuple]:
    """Emit output tuples in SELECT-list order."""
    columns = [item.expr for item in node.output]
    for row in source:
        yield tuple(column_value(row, c) for c in columns)


def star_rows(source: Iterator[Row]) -> Iterator[Tuple]:
    """Emit full rows (SELECT *) in a deterministic column order."""
    for row in source:
        yield tuple(row[key] for key in sorted(row.keys()))


class _AggState:
    """Incremental state for one aggregate within one group."""

    __slots__ = ("func", "count", "total", "extreme")

    def __init__(self, func: AggFunc) -> None:
        self.func = func
        self.count = 0
        self.total = 0.0
        self.extreme = None

    def update(self, value) -> None:
        self.count += 1
        if self.func in (AggFunc.SUM, AggFunc.AVG):
            self.total += value
        elif self.func is AggFunc.MIN:
            self.extreme = value if self.extreme is None else min(self.extreme, value)
        elif self.func is AggFunc.MAX:
            self.extreme = value if self.extreme is None else max(self.extreme, value)

    def result(self):
        if self.func is AggFunc.COUNT:
            return self.count
        if self.func is AggFunc.SUM:
            return self.total if self.count else None
        if self.func is AggFunc.AVG:
            return self.total / self.count if self.count else None
        return self.extreme


def aggregate_rows(node: AggregateNode, source: Iterator[Row]) -> Iterator[Tuple]:
    """Hash aggregation producing output tuples in SELECT-list order.

    Groups are keyed by the GROUP BY columns; with no grouping a single
    global group is emitted (even over empty input, matching SQL
    semantics for aggregates without GROUP BY).
    """
    groups: Dict[Tuple, List[_AggState]] = {}
    group_rows: Dict[Tuple, Row] = {}

    def new_states() -> List[_AggState]:
        return [_AggState(agg.func) for agg in node.aggregates]

    saw_input = False
    for row in source:
        saw_input = True
        key = tuple(column_value(row, c) for c in node.group_by)
        states = groups.get(key)
        if states is None:
            states = new_states()
            groups[key] = states
            group_rows[key] = row
        for agg, state in zip(node.aggregates, states):
            if agg.arg is None:
                state.update(1)
            else:
                state.update(column_value(row, agg.arg))

    if not node.group_by and not saw_input:
        groups[()] = new_states()
        group_rows[()] = {}

    for key, states in groups.items():
        results = {
            id(agg): state.result() for agg, state in zip(node.aggregates, states)
        }
        yield _output_tuple(node.output, group_rows[key], node.aggregates, results)


def _output_tuple(
    output: List[SelectItem], row: Row, aggregates: List[Aggregate], results: Dict
) -> Tuple:
    values = []
    for item in output:
        if isinstance(item.expr, Aggregate):
            # Match by position among equal aggregates via identity first,
            # falling back to structural equality for parsed duplicates.
            if id(item.expr) in results:
                values.append(results[id(item.expr)])
            else:
                match = next(a for a in aggregates if a == item.expr)
                values.append(results[id(match)])
        else:
            values.append(column_value(row, item.expr))
    return tuple(values)
