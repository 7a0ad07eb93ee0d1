"""Physical storage: columnar heap tables and the physical index store.

``HeapTable`` stores rows column-wise in plain Python lists, which keeps
the executor simple and fast enough for the scaled-down physical data the
examples and tests run on.  ``PhysicalStore`` binds heap tables and built
B+trees to a catalog, so that the executor can resolve a plan's table and
index references to actual data structures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.btree import BPlusTree
from repro.engine.datatypes import coerce

if TYPE_CHECKING:
    from repro.engine.catalog import Catalog, TableDef
    from repro.engine.index import IndexDef


class HeapTable:
    """An in-memory columnar heap.

    Rows are addressed by dense integer row ids (their insertion order),
    which double as the row identifiers stored in B+tree leaves.
    """

    def __init__(self, definition: TableDef) -> None:
        self.definition = definition
        self._columns: Dict[str, List] = {c.name: [] for c in definition.columns}
        self._count = 0

    def __len__(self) -> int:
        """Number of physically stored rows."""
        return self._count

    @property
    def column_names(self) -> List[str]:
        """Column names in schema order."""
        return [c.name for c in self.definition.columns]

    def insert(self, row: Sequence) -> int:
        """Append one row (values in schema order).

        Returns:
            The row id of the inserted row.

        Raises:
            ValueError: if the row has the wrong arity.
            TypeError: if a value does not match its column type.
        """
        if len(row) != len(self.definition.columns):
            raise ValueError(
                f"expected {len(self.definition.columns)} values, got {len(row)}"
            )
        for col, value in zip(self.definition.columns, row):
            self._columns[col.name].append(coerce(value, col.dtype))
        self._count += 1
        return self._count - 1

    def insert_many(self, rows: Iterable[Sequence]) -> None:
        """Append many rows."""
        for row in rows:
            self.insert(row)

    def column(self, name: str) -> List:
        """The full value list for one column (by reference)."""
        return self._columns[name]

    def value(self, rid: int, column: str) -> object:
        """One cell value."""
        return self._columns[column][rid]

    def row(self, rid: int) -> Tuple:
        """One full row as a tuple in schema order."""
        return tuple(self._columns[name][rid] for name in self.column_names)

    def scan(self) -> Iterable[Tuple[int, Tuple]]:
        """Yield (row id, row tuple) for every row in heap order."""
        names = self.column_names
        cols = [self._columns[name] for name in names]
        for rid in range(self._count):
            yield rid, tuple(col[rid] for col in cols)


class PhysicalStore:
    """Binds a catalog to physical heaps and built B+trees.

    The store is the executor's view of the database.  Index creation and
    removal is routed through here by the scheduler, keeping the physical
    structures consistent with the catalog's materialized set.
    """

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._heaps: Dict[str, HeapTable] = {}
        self._trees: Dict[IndexDef, BPlusTree] = {}

    def create_heap(self, table: str) -> HeapTable:
        """Create (or return the existing) heap for a catalog table."""
        if table not in self._heaps:
            self._heaps[table] = HeapTable(self.catalog.table(table))
        return self._heaps[table]

    def heap(self, table: str) -> HeapTable:
        """The heap for a table.

        Raises:
            KeyError: if no heap has been created for the table.
        """
        return self._heaps[table]

    def has_heap(self, table: str) -> bool:
        """Whether physical rows exist for this table."""
        return table in self._heaps

    def build_index(self, index: IndexDef) -> BPlusTree:
        """Physically build a B+tree for ``index`` and register it.

        Composite indexes key on tuples of column values in key order.
        Also marks the index as materialized in the catalog, so the
        optimizer starts considering it immediately.
        """
        heap = self._heaps.get(index.table)
        if heap is None:
            tree = BPlusTree()
        elif index.is_composite:
            columns = [heap.column(name) for name in index.columns]
            tree = BPlusTree.bulk_load(
                (tuple(col[rid] for col in columns), rid)
                for rid in range(len(heap))
            )
        else:
            values = heap.column(index.column)
            tree = BPlusTree.bulk_load((v, rid) for rid, v in enumerate(values))
        self._trees[index] = tree
        self.catalog.materialize_index(index)
        return tree

    def drop_index(self, index: IndexDef) -> None:
        """Remove the physical tree and catalog entry for ``index``."""
        self._trees.pop(index, None)
        self.catalog.drop_index(index)

    def tree(self, index: IndexDef) -> Optional[BPlusTree]:
        """The physical B+tree for an index, if one has been built."""
        return self._trees.get(index)

    def apply_inserts(self, table: str, rows: Iterable[Sequence]) -> int:
        """Insert rows into a heap and maintain every built index on it.

        Returns:
            The number of rows inserted.  Catalog row-count statistics
            are bumped accordingly so the optimizer sees the growth.
        """
        heap = self.heap(table)
        index_trees = []
        for index in self.catalog.materialized_indexes(table):
            tree = self._trees.get(index)
            if tree is not None:
                index_trees.append((index, tree))

        count = 0
        for row in rows:
            rid = heap.insert(row)
            for index, tree in index_trees:
                if index.is_composite:
                    key = tuple(heap.value(rid, name) for name in index.columns)
                else:
                    key = heap.value(rid, index.column)
                tree.insert(key, rid)
            count += 1
        if count:
            # Through the catalog so the stats version bumps with the
            # row count: a delete-then-insert restoring the old count
            # must still invalidate retained plans.
            self.catalog.apply_row_delta(table, count)
        return count

    def analyze(self, table: str, scale_to: Optional[float] = None) -> None:
        """Measure statistics from the physical heap into the catalog.

        Args:
            table: Table to analyze.
            scale_to: If given, declare the statistical row count to be
                this value while histograms/bounds come from the physical
                sample -- the paper-scale statistics trick from DESIGN.md.
        """
        heap = self.heap(table)
        physical = float(len(heap))
        logical = physical if scale_to is None else float(scale_to)
        self.catalog.set_row_count(table, logical)
        factor = 1.0 if physical == 0 else logical / physical
        for name in heap.column_names:
            from repro.engine.stats import ColumnStats

            stats = ColumnStats.from_values(heap.column(name))
            if factor != 1.0:
                scaled = min(stats.n_distinct * factor, logical)
                stats = ColumnStats(
                    n_distinct=scaled,
                    min_value=stats.min_value,
                    max_value=stats.max_value,
                    histogram=stats.histogram,
                    correlation=stats.correlation,
                )
            self.catalog.set_stats(table, name, stats)
