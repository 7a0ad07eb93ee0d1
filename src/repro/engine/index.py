"""Index descriptors and their size/cost estimation.

COLT reasons about indexes symbolically: a candidate index exists in the
catalog as an :class:`IndexDef` long before (and often without ever) being
physically materialized.  The descriptor therefore carries everything the
optimizer and tuner need -- key column, estimated size in pages, estimated
materialization cost -- independent of any physical B+tree.
"""

from __future__ import annotations

import dataclasses
import operator
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:
    from repro.engine.cost_params import CostParams
    from repro.engine.datatypes import DataType


# The order of the guardrails' tables and snapshots: table, then key
# columns.  ``name`` order differs where a name splits two ways
# (``ix_a_b_c`` is both ``a.b_c`` and ``a_b.c``).
_by_table = operator.attrgetter("table", "columns")


@dataclasses.dataclass(frozen=True)
class IndexDef:
    """An index descriptor: single-column, or composite (extension).

    The paper restricts COLT to single-column indexes and defers
    multi-column indexes to future work; this reproduction supports both.
    A composite index lists its trailing key columns in
    ``extra_columns``; ``column`` is always the leading key column, so
    all single-column call sites work unchanged.

    Two indexes are the same index iff they cover the same table and the
    same ordered key-column list; the paper's candidate set ``C``, hot
    set ``H`` and materialized set ``M`` are all sets of these
    descriptors.

    Attributes:
        table: Name of the indexed table.
        column: Name of the leading key column.
        dtype: Data type of the leading key column.
        extra_columns: Trailing key columns as (name, dtype) pairs, in
            key order; empty for single-column indexes.
        columns: All key column names, in key order (derived).
        dtypes: Data types of all key columns, in key order (derived).
        key_width: Total key width in bytes (derived).
        name: Canonical index name, e.g. ``ix_lineitem_l_shipdate``
            (derived).
    """

    table: str
    column: str
    dtype: DataType
    extra_columns: Tuple[Tuple[str, DataType], ...] = ()

    def __post_init__(self) -> None:
        # Immutable, and read on every costing, set lookup and
        # name-ordered sort: derive once.
        columns = (self.column,) + tuple(name for name, _ in self.extra_columns)
        dtypes = (self.dtype,) + tuple(dt for _, dt in self.extra_columns)
        derive = object.__setattr__
        derive(self, "columns", columns)
        derive(self, "dtypes", dtypes)
        derive(self, "key_width", sum(dt.width for dt in dtypes))
        derive(self, "name", f"ix_{self.table}_" + "_".join(columns))
        derive(self, "_hash", hash((self.table, columns)))

    def __hash__(self) -> int:
        # (table, columns) is the index's identity; equal descriptors
        # agree on it, so this is consistent with the generated __eq__.
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor: str hashes are salted per
        # process, so the cached hash must never travel in a pickle.
        return (IndexDef, (self.table, self.column, self.dtype, self.extra_columns))

    @property
    def is_composite(self) -> bool:
        """Whether this index has more than one key column."""
        return bool(self.extra_columns)

    def __str__(self) -> str:
        return self.name

    def size_pages(self, row_count: float, params: CostParams) -> float:
        """Estimated total size of the index in pages (leaves + internal).

        Internal levels are approximated as 0.5% of the leaf level, which
        matches high-fanout B+trees.
        """
        leaves = params.index_pages(row_count, self.key_width)
        return leaves * 1.005

    def materialization_cost(self, row_count: float, heap_pages: float, params: CostParams) -> float:
        """Estimated cost of building the index, in planner cost units.

        The build must scan the heap once, sort the keys, and write out the
        leaf pages; we charge a sequential heap scan, per-tuple build CPU
        (covering the sort), and sequential writes of the leaf level.
        """
        leaves = params.index_pages(row_count, self.key_width)
        return (
            heap_pages * params.seq_page_cost
            + row_count * params.index_build_cpu_per_tuple
            + leaves * params.seq_page_cost
        )
