"""Join iterators: hash join and nested loops (plain and index-driven)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Tuple

from repro.executor.predicates import Row, column_value, eval_join
from repro.executor.scans import lookup_rows
from repro.optimizer.plan import IndexScanNode

if TYPE_CHECKING:
    from repro.engine.storage import PhysicalStore
    from repro.optimizer.plan import HashJoinNode, NestedLoopNode

RowIter = Iterator[Row]
Source = Callable[[], RowIter]


def hash_join(node: HashJoinNode, probe: Source, build: Source) -> RowIter:
    """Classic in-memory hash join on the node's equi-join keys.

    The build side is fully materialized into a hash table keyed by the
    tuple of join values; probe rows stream through.
    """
    build_keys, probe_keys = _split_keys(node)
    table: Dict[Tuple, List[Row]] = {}
    for row in build():
        key = tuple(column_value(row, c) for c in build_keys)
        table.setdefault(key, []).append(row)
    for row in probe():
        key = tuple(column_value(row, c) for c in probe_keys)
        for match in table.get(key, ()):
            yield {**row, **match}


def nested_loop(
    node: NestedLoopNode, store: PhysicalStore, outer: Source, inner: Source
) -> RowIter:
    """Nested-loop join.

    When the inner plan is a parameterized index scan, each outer row
    drives a point lookup on the inner B+tree (index nested loop).
    Otherwise the inner input is materialized once and joined by
    predicate evaluation; with no join predicates this degenerates to the
    cartesian product the planner's fallback uses for disconnected join
    graphs.
    """
    if (
        isinstance(node.inner, IndexScanNode)
        and node.inner.parameterized_by is not None
    ):
        outer_col = node.inner.parameterized_by
        for outer_row in outer():
            key = column_value(outer_row, outer_col)
            for inner_row in lookup_rows(store, node.inner, key):
                combined = {**outer_row, **inner_row}
                if all(eval_join(j, combined) for j in node.joins):
                    yield combined
        return

    inner_rows = list(inner())
    for outer_row in outer():
        for inner_row in inner_rows:
            combined = {**outer_row, **inner_row}
            if all(eval_join(j, combined) for j in node.joins):
                yield combined


def _split_keys(node: HashJoinNode):
    """Join columns per side, ordered consistently across the key tuples."""
    probe_tables = node.probe.tables()
    build_keys = []
    probe_keys = []
    for join in node.joins:
        if join.left.table in probe_tables:
            probe_keys.append(join.left)
            build_keys.append(join.right)
        else:
            probe_keys.append(join.right)
            build_keys.append(join.left)
    return build_keys, probe_keys
