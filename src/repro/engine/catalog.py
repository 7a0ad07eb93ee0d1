"""System catalog: tables, columns, statistics, and the index registry.

The catalog is the single source of truth the optimizer consults.  It
tracks which indexes are *materialized* (usable by plans) separately from
the universe of *definable* indexes, which is what makes what-if
optimization natural: a what-if call simply optimizes against a different
materialized-set view (see ``repro.optimizer.whatif``).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.engine.cost_params import CostParams
from repro.engine.index import IndexDef
from repro.engine.stats import ColumnStats, default_stats_for

if TYPE_CHECKING:
    from repro.engine.datatypes import DataType


@dataclasses.dataclass(frozen=True)
class ColumnRef:
    """A fully-qualified column reference (``table.column``)."""

    table: str
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}"


@dataclasses.dataclass
class ColumnDef:
    """Definition of one column.

    Attributes:
        name: Column name, unique within its table.
        dtype: Scalar data type.
        indexable: Whether COLT may propose an index on this column.
            Mirrors the paper's count of "indexable attributes".
    """

    name: str
    dtype: DataType
    indexable: bool = True


@dataclasses.dataclass
class TableDef:
    """Definition of one table plus its optimizer-visible statistics.

    Attributes:
        name: Table name, unique within the catalog.
        columns: Ordered column definitions.
        row_count: Statistical row count used by the cost model.  This may
            describe a larger logical table than is physically stored (see
            DESIGN.md on paper-scale statistics over sampled data).
        row_width: Average row payload width in bytes; fixed with the
            column list at construction.
    """

    name: str
    columns: List[ColumnDef]
    row_count: float = 0.0

    def __post_init__(self) -> None:
        self._by_name = {c.name: c for c in self.columns}
        if len(self._by_name) != len(self.columns):
            raise ValueError(f"duplicate column names in table {self.name!r}")
        self.row_width = sum(c.dtype.width for c in self.columns)
        # (row_count, params, pages) of the last heap_pages() answer.
        self._heap_pages: Optional[tuple] = None

    def column(self, name: str) -> ColumnDef:
        """Look up a column by name.

        Raises:
            KeyError: if the column does not exist.
        """
        return self._by_name[name]

    def has_column(self, name: str) -> bool:
        """Whether the table defines a column with this name."""
        return name in self._by_name

    def heap_pages(self, params: CostParams) -> float:
        """Heap size in pages under the statistical row count (re-derived
        when ``row_count``, which callers may assign, or ``params`` differs)."""
        held = self._heap_pages
        if held is None or held[0] != self.row_count or held[1] is not params:
            pages = params.heap_pages(self.row_count, self.row_width)
            held = self._heap_pages = (self.row_count, params, pages)
        return held[2]


class Catalog:
    """The system catalog.

    Holds table definitions, per-column statistics, the set of currently
    materialized indexes, and the cost parameters.  All mutation of the
    physical design (create/drop index) goes through this class so that
    the tuner, optimizer and executor always agree on the configuration.
    """

    def __init__(self, params: Optional[CostParams] = None) -> None:
        self.params = params or CostParams()
        self._tables: Dict[str, TableDef] = {}
        self._stats: Dict[Tuple[str, str], ColumnStats] = {}
        # The materialized set, in materialization order.
        self._materialized: Dict[IndexDef, None] = {}
        self._stats_versions: Dict[str, int] = {}
        self._column_stats_versions: Dict[str, int] = {}
        self._generation: int = 0
        # The one descriptor per (table, columns) that index_for and
        # composite_index_for serve.
        self._indexes: Dict[Tuple[str, Tuple[str, ...]], IndexDef] = {}
        # index -> its row-count terms, see index_costing.
        self._index_costs: Dict[IndexDef, tuple] = {}

    # ------------------------------------------------------------------
    # Tables and columns
    # ------------------------------------------------------------------
    def add_table(self, table: TableDef) -> None:
        """Register a table definition.

        Raises:
            ValueError: if a table with the same name already exists.
        """
        if table.name in self._tables:
            raise ValueError(f"table {table.name!r} already exists")
        self._tables[table.name] = table

    def table(self, name: str) -> TableDef:
        """Look up a table by name.

        Raises:
            KeyError: if the table does not exist.
        """
        return self._tables[name]

    def has_table(self, name: str) -> bool:
        """Whether a table with this name exists."""
        return name in self._tables

    def tables(self) -> List[TableDef]:
        """All table definitions, in registration order."""
        return list(self._tables.values())

    def indexable_columns(self) -> List[ColumnRef]:
        """All (table, column) pairs on which an index may be defined."""
        refs = []
        for table in self._tables.values():
            for col in table.columns:
                if col.indexable:
                    refs.append(ColumnRef(table.name, col.name))
        return refs

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def set_stats(self, table: str, column: str, stats: ColumnStats) -> None:
        """Install statistics for a column (ANALYZE or declared)."""
        tdef = self.table(table)
        if not tdef.has_column(column):
            raise KeyError(f"no column {column!r} in table {table!r}")
        self._stats[(table, column)] = stats
        self.bump_stats_version(table)

    def stats(self, table: str, column: str) -> ColumnStats:
        """Statistics for a column, falling back to type defaults."""
        key = (table, column)
        if key in self._stats:
            return self._stats[key]
        tdef = self.table(table)
        return default_stats_for(tdef.column(column).dtype, tdef.row_count)

    def has_stats(self, table: str, column: str) -> bool:
        """Whether :meth:`stats` reads installed statistics for the column
        (not the fallback :func:`default_stats_for` derives from
        ``row_count``)."""
        return (table, column) in self._stats

    def stats_version(self, table: str) -> int:
        """Monotone counter bumped on every stats-affecting mutation.

        Together with ``row_count`` this forms the staleness token a
        retained plan cache validates on lookup: any statistics refresh
        changes the token, so plans costed under old statistics can
        never be served.  ``set_stats`` (ANALYZE),
        :meth:`apply_row_delta` and :meth:`set_row_count` all bump it --
        the version alone distinguishes a delete-then-insert that
        restores the original row count, which ``row_count`` cannot.  A
        zero delta moves nothing a price reads and leaves it alone.
        """
        return self._stats_versions.get(table, 0)

    def column_stats_version(self, table: str) -> int:
        """Monotone counter over the table's column statistics: bumped
        with :meth:`stats_version` by :meth:`bump_stats_version` (so by
        ``set_stats``) and by nothing else, *not* by row moves.

        An unchanged value means every installed column statistic of the
        table, and so every filter selectivity read from one, is what it
        was; a row move still changes every cost.
        """
        return self._column_stats_versions.get(table, 0)

    def stats_token(self, table: str) -> Tuple[float, int]:
        """``(row_count, stats_version)`` of a table: equal tokens mean
        queries over it are priced identically (a direct ``row_count``
        assignment shows in the first component).

        Raises:
            KeyError: if the table does not exist.
        """
        return self._tables[table].row_count, self._stats_versions.get(table, 0)

    @property
    def generation(self) -> int:
        """Catalog-wide monotone counter over the materialized index set.

        Bumped by :meth:`materialize_index` and by a :meth:`drop_index`
        that removes something -- nothing else.  An unchanged generation
        proves the materialized set is the same (``Optimizer.
        current_config`` and the profiler's cluster signatures are
        re-derived once per generation); statistics and row counts are
        tracked per table by :meth:`stats_token`.
        """
        return self._generation

    def bump_stats_version(self, table: str) -> int:
        """Mark a table's column statistics as changed; returns the new
        :meth:`stats_version` (the :meth:`column_stats_version` moves too).

        Raises:
            KeyError: if the table does not exist.
        """
        self.table(table)
        versions = self._column_stats_versions
        versions[table] = versions.get(table, 0) + 1
        return self._bump_version(table)

    def _bump_version(self, table: str) -> int:
        """Move the table's :meth:`stats_version` alone (a row move)."""
        version = self._stats_versions.get(table, 0) + 1
        self._stats_versions[table] = version
        return version

    def apply_row_delta(self, table: str, delta: float) -> float:
        """Adjust a table's statistical row count by ``delta``.

        Every caller that grows or shrinks a table must come through
        here (not assign ``TableDef.row_count`` directly) so the stats
        version is bumped alongside -- otherwise a delete-then-insert
        restoring the original row count would leave the staleness
        token unchanged and stale plans could be served.  A row move
        leaves :meth:`column_stats_version` and :attr:`generation` alone.

        A zero ``delta`` changes nothing, the stats version included.

        Returns:
            The new row count.

        Raises:
            KeyError: if the table does not exist.
            ValueError: if the row count would fall below zero; nothing
                is mutated.
        """
        tdef = self.table(table)
        if delta:
            rows = tdef.row_count + delta
            if rows < 0:
                raise ValueError(f"{table!r} has {tdef.row_count} rows, delta {delta}")
            tdef.row_count = rows
            self._bump_version(table)
        return tdef.row_count

    def set_row_count(self, table: str, row_count: float) -> None:
        """Set a table's statistical row count, bumping the stats version
        (not the column statistics version: see :meth:`apply_row_delta`).

        Raises:
            KeyError: if the table does not exist.
            ValueError: if ``row_count`` is negative; nothing is mutated.
        """
        tdef = self.table(table)
        if row_count < 0:
            raise ValueError(f"row count of {table!r} cannot be {row_count}")
        tdef.row_count = float(row_count)
        self._bump_version(table)

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def index_for(self, table: str, column: str) -> IndexDef:
        """The canonical single-column :class:`IndexDef` for a column."""
        index = self._indexes.get((table, (column,)))
        if index is None:
            index = self.composite_index_for(table, (column,))
        return index

    def composite_index_for(self, table: str, columns: Iterable[str]) -> IndexDef:
        """The canonical :class:`IndexDef` over ordered columns: every call
        with the same columns returns the same object, and over one column
        it is :meth:`index_for`'s descriptor.

        Raises:
            ValueError: for fewer than one column or duplicates.
        """
        names = tuple(columns)
        index = self._indexes.get((table, names))
        if index is None:
            if not names:
                raise ValueError("an index needs at least one column")
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate columns in composite index: {list(names)}")
            tdef = self.table(table)
            dtypes = [tdef.column(name).dtype for name in names]
            index = IndexDef(
                table=table,
                column=names[0],
                dtype=dtypes[0],
                extra_columns=tuple(zip(names[1:], dtypes[1:])),
            )
            self._indexes[(table, names)] = index
        return index

    def materialize_index(self, index: IndexDef) -> None:
        """Mark an index as materialized (usable by the optimizer)."""
        self._materialized[index] = None
        self._generation += 1

    def drop_index(self, index: IndexDef) -> None:
        """Remove an index from the materialized set (no-op if absent)."""
        if index in self._materialized:
            del self._materialized[index]
            self._generation += 1

    def is_materialized(self, index: IndexDef) -> bool:
        """Whether this index is currently materialized."""
        return index in self._materialized

    def materialized_indexes(self, table: Optional[str] = None) -> List[IndexDef]:
        """Materialized indexes, optionally restricted to one table."""
        indexes = self._materialized
        if table is not None:
            return [ix for ix in indexes if ix.table == table]
        return list(indexes)

    def materialized_size_pages(self) -> float:
        """Total pages consumed by the materialized set."""
        return sum(self.index_size_pages(ix) for ix in self._materialized)

    def index_size_pages(self, index: IndexDef) -> float:
        """Estimated size of one index in pages."""
        return self.index_costing(index)[2]

    def index_build_cost(self, index: IndexDef) -> float:
        """Estimated cost of materializing one index, in cost units."""
        return self.index_costing(index)[3]

    def index_costing(self, index: IndexDef) -> tuple:
        """``(row_count, params, size pages, build cost, leaf pages, height,
        heap pages)`` for ``index``, evaluated once per row count of its
        table: every row-count term of building and scanning the index
        beside what they were costed under, for a caller that holds the
        tuple and checks the first two itself."""
        table = self.table(index.table)
        rows, params = table.row_count, self.params
        held = self._index_costs.get(index)
        if held is None or held[0] != rows or held[1] is not params:
            heap = table.heap_pages(params)
            leaves = params.index_pages(rows, index.key_width)
            held = self._index_costs[index] = (
                rows, params, index.size_pages(rows, params),
                index.materialization_cost(rows, heap, params),
                leaves, params.index_height(leaves), heap,
            )
        return held

    # ------------------------------------------------------------------
    # Bulk helpers
    # ------------------------------------------------------------------
    def analyze_table(self, table: str, columns: Dict[str, Iterable]) -> None:
        """Measure and install statistics for the given column values."""
        for name, values in columns.items():
            self.set_stats(table, name, ColumnStats.from_values(list(values)))
