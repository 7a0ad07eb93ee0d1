"""Execution instrumentation: physical work counters.

``CountingStore`` wraps a :class:`~repro.engine.storage.PhysicalStore`
and counts the physical operations the executor performs -- heap rows
fetched, B+tree descents, index entries touched.  It exists for two
purposes:

* **cost-model validation** -- tests check that plans the optimizer
  deems cheaper really do less physical work on data;
* **EXPLAIN ANALYZE-style reporting** -- examples can show the actual
  row counts behind a plan;
* **pricing** -- :meth:`CountingStore.observed_cost` executes a plan and
  weighs its counters; every store-backed cost comes from it.

The wrapper is transparent: any plan that executes against the
underlying store executes identically against the counting store.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

from repro.executor.executor import execute

if TYPE_CHECKING:
    from repro.engine.btree import BPlusTree
    from repro.engine.cost_params import CostParams
    from repro.engine.index import IndexDef
    from repro.engine.storage import HeapTable, PhysicalStore
    from repro.optimizer.plan import PlanNode

#: Heap rows assumed per sequential page when weighing observed counters.
ROWS_PER_SEQ_PAGE = 64.0


@dataclasses.dataclass
class ExecutionCounters:
    """Physical operation counts accumulated during execution.

    Attributes:
        heap_rows_read: Heap tuples materialized (full-row or per-scan).
        heap_cells_read: Individual cell fetches (point accesses).
        index_searches: B+tree point lookups (descents).
        index_entries_read: (key, rid) entries produced by index scans.
    """

    heap_rows_read: int = 0
    heap_cells_read: int = 0
    index_searches: int = 0
    index_entries_read: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.heap_rows_read = 0
        self.heap_cells_read = 0
        self.index_searches = 0
        self.index_entries_read = 0

    @property
    def total_physical_ops(self) -> int:
        """A single roll-up useful for coarse comparisons."""
        return (
            self.heap_rows_read
            + self.heap_cells_read
            + self.index_searches
            + self.index_entries_read
        )


def observed_cost(counters: ExecutionCounters, params: CostParams) -> float:
    """Weigh physical-operation counters into planner cost units.

    Sequential heap rows amortize their page fetches
    (:data:`ROWS_PER_SEQ_PAGE` rows per sequential page); every index
    entry read drags a *random* heap fetch behind it (the executor
    fetches matched rows by rid), which is exactly the term a
    misleading selectivity estimate hides.
    """
    return (
        counters.heap_rows_read
        * (params.cpu_tuple_cost + params.seq_page_cost / ROWS_PER_SEQ_PAGE)
        + counters.index_searches * params.random_page_cost
        + counters.index_entries_read
        * (params.cpu_index_tuple_cost + params.random_page_cost)
        + counters.heap_cells_read * params.cpu_operator_cost
    )


class _CountingHeap:
    """Heap proxy that counts row and cell fetches."""

    def __init__(self, heap: HeapTable, counters: ExecutionCounters) -> None:
        self._heap = heap
        self._counters = counters

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def definition(self):
        return self._heap.definition

    @property
    def column_names(self):
        return self._heap.column_names

    def column(self, name: str):
        return self._heap.column(name)

    def value(self, rid: int, column: str):
        self._counters.heap_cells_read += 1
        return self._heap.value(rid, column)

    def row(self, rid: int) -> Tuple:
        self._counters.heap_rows_read += 1
        return self._heap.row(rid)

    def scan(self) -> Iterator[Tuple[int, Tuple]]:
        for rid, row in self._heap.scan():
            self._counters.heap_rows_read += 1
            yield rid, row


class _CountingTree:
    """B+tree proxy that counts lookups and entries."""

    def __init__(self, tree: BPlusTree, counters: ExecutionCounters) -> None:
        self._tree = tree
        self._counters = counters

    def __len__(self) -> int:
        return len(self._tree)

    def search(self, key):
        self._counters.index_searches += 1
        rids = self._tree.search(key)
        self._counters.index_entries_read += len(rids)
        return rids

    def range_scan(self, *args, **kwargs):
        self._counters.index_searches += 1
        for item in self._tree.range_scan(*args, **kwargs):
            self._counters.index_entries_read += 1
            yield item


class CountingStore:
    """A :class:`PhysicalStore` facade with operation counting.

    Pass this wherever a ``PhysicalStore`` is accepted by the executor;
    read the accumulated work from :attr:`counters`, or price one plan's
    execution with :meth:`observed_cost`.
    """

    def __init__(self, store: PhysicalStore) -> None:
        self._store = store
        self.counters = ExecutionCounters()

    @property
    def catalog(self):
        """The underlying catalog (shared, not copied)."""
        return self._store.catalog

    def heap(self, table: str) -> _CountingHeap:
        """A counting proxy over the named heap."""
        return _CountingHeap(self._store.heap(table), self.counters)

    def has_heap(self, table: str) -> bool:
        """Whether the underlying store has rows for this table."""
        return self._store.has_heap(table)

    def tree(self, index: IndexDef) -> Optional[_CountingTree]:
        """A counting proxy over the index's B+tree, if built."""
        tree = self._store.tree(index)
        if tree is None:
            return None
        return _CountingTree(tree, self.counters)

    def observed_cost(self, plan: PlanNode) -> float:
        """Price one execution of ``plan`` (counters reset first)."""
        self.counters.reset()
        execute(plan, self)
        return observed_cost(self.counters, self._store.catalog.params)
