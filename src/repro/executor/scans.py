"""Scan iterators: sequential heap scan and B+tree index scan."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List

from repro.executor.predicates import eval_filters

if TYPE_CHECKING:
    from repro.engine.storage import HeapTable, PhysicalStore
    from repro.executor.predicates import Row
    from repro.optimizer.plan import IndexScanNode, SeqScanNode


def _heap_row(heap: HeapTable, table: str, rid: int) -> Row:
    names = heap.column_names
    return {(table, name): heap.value(rid, name) for name in names}


def seq_scan(store: PhysicalStore, node: SeqScanNode) -> Iterator[Row]:
    """Scan a heap sequentially, applying the node's filters."""
    heap = store.heap(node.table)
    names = heap.column_names
    for rid, values in heap.scan():
        row = {(node.table, name): v for name, v in zip(names, values)}
        if eval_filters(node.filters, row):
            yield row


def index_scan(
    store: PhysicalStore, node: IndexScanNode, bind_key=None
) -> Iterator[Row]:
    """Scan via a B+tree, fetching matching heap rows.

    Args:
        store: Physical store resolving the index and heap.
        node: The index scan plan node.
        bind_key: Runtime lookup key for a parameterized scan (inner side
            of an index nested loop).  Required iff the node is
            parameterized.

    Raises:
        RuntimeError: if the index has no physical tree (materialized in
            the catalog but never built), or if a parameterized node is
            executed without a key.
    """
    tree = store.tree(node.index)
    if tree is None:
        raise RuntimeError(
            f"index {node.index.name} has no physical B+tree; "
            "was it materialized through the scheduler?"
        )
    heap = store.heap(node.table)

    rids = _matching_rids(tree, node, bind_key)
    for rid in rids:
        row = _heap_row(heap, node.table, rid)
        if eval_filters(node.residual, row):
            yield row


def _matching_rids(tree, node: IndexScanNode, bind_key) -> Iterator[int]:
    if node.parameterized_by is not None:
        if bind_key is None:
            raise RuntimeError(
                f"parameterized index scan on {node.index.name} executed "
                "without a lookup key"
            )
        yield from tree.search(bind_key)
        return
    if node.index.is_composite:
        yield from _composite_rids(tree, node)
        return
    if node.lookup_value is not None:
        yield from tree.search(node.lookup_value)
        return
    if node.in_values is not None:
        seen: List[int] = []
        for value in node.in_values:
            seen.extend(tree.search(value))
        yield from seen
        return
    for _key, rid in tree.range_scan(
        low=node.range_low,
        high=node.range_high,
        low_inclusive=node.low_inclusive,
        high_inclusive=node.high_inclusive,
    ):
        yield rid


def _composite_rids(tree, node: IndexScanNode) -> Iterator[int]:
    """Row ids from a composite (multi-column) index scan.

    Keys in composite trees are tuples in key-column order.  The plan
    node provides equality values for the leading ``prefix_values``
    columns; any further bounds apply to the key column right after the
    prefix.  Tuple ordering makes a prefix ``p`` sort immediately before
    every full key extending it, so scans seed at ``p`` and stop as soon
    as the prefix (or the bounded column) is exceeded.
    """
    prefix = tuple(node.prefix_values)
    if node.lookup_value is not None:
        yield from tree.search(prefix + (node.lookup_value,))
        return
    if node.in_values is not None:
        for value in node.in_values:
            yield from tree.search(prefix + (value,))
        return

    position = len(prefix)
    low = prefix
    if node.range_low is not None:
        low = prefix + (node.range_low,)
    for key, rid in tree.range_scan(low=low if low else None):
        if key[:position] != prefix:
            break  # moved past the prefix (scan starts inside it)
        if position < len(key):
            value = key[position]
            if node.range_low is not None:
                if value < node.range_low:
                    continue
                if value == node.range_low and not node.low_inclusive:
                    continue
            if node.range_high is not None:
                if value > node.range_high:
                    break
                if value == node.range_high and not node.high_inclusive:
                    continue
        yield rid


def lookup_rows(
    store: PhysicalStore, node: IndexScanNode, key
) -> Iterator[Row]:
    """Fetch the inner rows of a parameterized scan for one outer key."""
    yield from index_scan(store, node, bind_key=key)
