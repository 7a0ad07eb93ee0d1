"""Plan-to-iterator dispatch and the public execution entry points."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Tuple

from repro.executor.joins import hash_join, nested_loop
from repro.executor.operators import (
    aggregate_rows,
    limit_rows,
    project_rows,
    sort_rows,
    star_rows,
)
from repro.executor.scans import index_scan, seq_scan
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.plan import (
    AggregateNode,
    HashJoinNode,
    IndexScanNode,
    LimitNode,
    NestedLoopNode,
    ProjectNode,
    SeqScanNode,
    SortNode,
)

if TYPE_CHECKING:
    from repro.engine.storage import PhysicalStore
    from repro.executor.predicates import Row
    from repro.optimizer.plan import PlanNode
    from repro.sql.ast import Query


def _rows(plan: PlanNode, store: PhysicalStore) -> Iterator[Row]:
    """Recursive row-iterator construction for row-producing nodes."""
    if isinstance(plan, SeqScanNode):
        return seq_scan(store, plan)
    if isinstance(plan, IndexScanNode):
        return index_scan(store, plan)
    if isinstance(plan, HashJoinNode):
        return hash_join(
            plan,
            probe=lambda: _rows(plan.probe, store),
            build=lambda: _rows(plan.build, store),
        )
    if isinstance(plan, NestedLoopNode):
        return nested_loop(
            plan,
            store,
            outer=lambda: _rows(plan.outer, store),
            inner=lambda: _rows(plan.inner, store),
        )
    if isinstance(plan, SortNode):
        return sort_rows(plan, _rows(plan.child, store))
    if isinstance(plan, LimitNode):
        return limit_rows(plan, _rows(plan.child, store))
    raise TypeError(f"node {type(plan).__name__} does not produce raw rows")


def execute(plan: PlanNode, store: PhysicalStore) -> List[Tuple]:
    """Execute a physical plan and return the result tuples.

    Projection and aggregation nodes convert the row stream into output
    tuples; Sort/Limit above them reorder or truncate the tuple list by
    output position.  Plans without a projection root emit full rows in
    deterministic column order (SELECT *).
    """
    if isinstance(plan, ProjectNode):
        return list(project_rows(plan, _rows(plan.child, store)))
    if isinstance(plan, AggregateNode):
        return list(aggregate_rows(plan, _rows(plan.child, store)))
    if isinstance(plan, LimitNode) and _produces_tuples(plan.child):
        return execute(plan.child, store)[: plan.limit]
    if isinstance(plan, SortNode) and _produces_tuples(plan.child):
        tuples = execute(plan.child, store)
        output = _output_items(plan.child)
        for item in reversed(plan.keys):
            position = _output_position(output, item.column)
            tuples.sort(key=lambda t, p=position: t[p], reverse=item.descending)
        return tuples
    return list(star_rows(_rows(plan, store)))


def _produces_tuples(node: PlanNode) -> bool:
    """Whether a node emits output tuples rather than raw rows."""
    if isinstance(node, (ProjectNode, AggregateNode)):
        return True
    if isinstance(node, (SortNode, LimitNode)):
        return _produces_tuples(node.child)
    return False


def _output_items(node: PlanNode):
    if isinstance(node, (ProjectNode, AggregateNode)):
        return node.output
    return _output_items(node.child)


def _output_position(output, column) -> int:
    for i, item in enumerate(output):
        if item.expr == column:
            return i
    raise ValueError(
        f"ORDER BY column {column} does not appear in the SELECT list"
    )


def execute_query(query: Query, store: PhysicalStore) -> List[Tuple]:
    """Optimize a bound query against the store's catalog and execute it."""
    optimizer = Optimizer(store.catalog)
    result = optimizer.optimize(query)
    return execute(result.plan, store)
