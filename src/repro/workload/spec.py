"""Declarative column specifications.

Each column of the synthetic schema is described by a :class:`ColumnSpec`
that is the single source of truth for two derivations:

* **statistics** -- paper-scale :class:`~repro.engine.stats.ColumnStats`
  computed analytically (no data needed), which is what the cost-model
  simulation benches run on; and
* **data** -- physical row generation at a reduced scale factor, used by
  examples and integration tests that execute queries for real.

Keeping both derivations on one spec guarantees the physical sample is
distributed like the declared statistics claim.
"""

from __future__ import annotations

import dataclasses
import enum
import random
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.engine.datatypes import parse_date
from repro.engine.stats import ColumnStats

if TYPE_CHECKING:
    from repro.engine.datatypes import DataType


class ColumnKind(enum.Enum):
    """How a column's values are distributed."""

    PRIMARY_KEY = "pk"
    FOREIGN_KEY = "fk"
    UNIFORM_INT = "uniform_int"
    UNIFORM_FLOAT = "uniform_float"
    DATE_RANGE = "date"
    CHOICE = "choice"
    UNIQUE_TEXT = "text"


@dataclasses.dataclass(frozen=True)
class ColumnSpec:
    """Specification of one column.

    Attributes:
        name: Column name.
        dtype: Engine data type.
        kind: Value distribution family.
        low / high: Numeric or date-string bounds (kind-dependent).
        choices: Domain for CHOICE columns.
        fk_parent_rows: Cardinality of the referenced key domain for
            FOREIGN_KEY columns.
    """

    name: str
    dtype: DataType
    kind: ColumnKind
    low: Optional[float] = None
    high: Optional[float] = None
    choices: Optional[Tuple[str, ...]] = None
    fk_parent_rows: Optional[int] = None

    # ------------------------------------------------------------------
    # Statistics derivation (paper scale)
    # ------------------------------------------------------------------
    def stats(self, row_count: int) -> ColumnStats:
        """Analytic statistics for this column at ``row_count`` rows."""
        if self.kind is ColumnKind.PRIMARY_KEY:
            return ColumnStats(
                n_distinct=float(row_count),
                min_value=1,
                max_value=row_count,
                correlation=1.0,
            )
        if self.kind is ColumnKind.FOREIGN_KEY:
            domain = int(self.fk_parent_rows or row_count)
            return ColumnStats(
                n_distinct=float(min(row_count, domain)),
                min_value=1,
                max_value=domain,
            )
        if self.kind is ColumnKind.UNIFORM_INT:
            domain = int(self.high - self.low) + 1
            return ColumnStats(
                n_distinct=float(min(row_count, domain)),
                min_value=int(self.low),
                max_value=int(self.high),
            )
        if self.kind is ColumnKind.UNIFORM_FLOAT:
            return ColumnStats(
                n_distinct=float(row_count),
                min_value=float(self.low),
                max_value=float(self.high),
            )
        if self.kind is ColumnKind.DATE_RANGE:
            lo = parse_date(str(self.low))
            hi = parse_date(str(self.high))
            # Fact-table dates track insertion order in TPC-H-style data
            # (orders arrive roughly chronologically), so declare a high
            # physical-order correlation; this is what makes date-range
            # index scans cheap in PostgreSQL too.
            return ColumnStats(
                n_distinct=float(min(row_count, hi - lo + 1)),
                min_value=lo,
                max_value=hi,
                correlation=0.9,
            )
        if self.kind is ColumnKind.CHOICE:
            ordered = sorted(self.choices)
            return ColumnStats(
                n_distinct=float(min(row_count, len(ordered))),
                min_value=ordered[0],
                max_value=ordered[-1],
            )
        # UNIQUE_TEXT: high-cardinality strings; index candidates on these
        # are rarely useful, which is the realistic behaviour.
        return ColumnStats(
            n_distinct=float(row_count), min_value="a", max_value="z"
        )

    # ------------------------------------------------------------------
    # Data derivation (physical scale)
    # ------------------------------------------------------------------
    def generate(self, rng: random.Random, row_index: int, row_count: int):
        """One physical value for row ``row_index`` of ``row_count``."""
        if self.kind is ColumnKind.PRIMARY_KEY:
            return row_index + 1
        if self.kind is ColumnKind.FOREIGN_KEY:
            return rng.randint(1, int(self.fk_parent_rows or row_count))
        if self.kind is ColumnKind.UNIFORM_INT:
            return rng.randint(int(self.low), int(self.high))
        if self.kind is ColumnKind.UNIFORM_FLOAT:
            return rng.uniform(float(self.low), float(self.high))
        if self.kind is ColumnKind.DATE_RANGE:
            lo = parse_date(str(self.low))
            hi = parse_date(str(self.high))
            return rng.randint(lo, hi)
        if self.kind is ColumnKind.CHOICE:
            return rng.choice(self.choices)
        return f"{self.name}_{row_index}_{rng.randrange(1 << 30)}"


@dataclasses.dataclass(frozen=True)
class TableSpec:
    """Specification of one table: columns plus the paper-scale cardinality."""

    name: str
    columns: Tuple[ColumnSpec, ...]
    row_count: int

    def column(self, name: str) -> ColumnSpec:
        """Look up a column spec by name.

        Raises:
            KeyError: if the column is not part of the table.
        """
        for col in self.columns:
            if col.name == name:
                return col
        raise KeyError(f"no column {name!r} in table spec {self.name!r}")

    @property
    def row_width(self) -> int:
        """Average row payload width in bytes."""
        return sum(c.dtype.width for c in self.columns)


def scaled_rows(spec: TableSpec, scale: float, minimum: int = 5) -> int:
    """Physical row count for a table at a data scale factor."""
    return max(minimum, min(spec.row_count, int(round(spec.row_count * scale))))


def generate_rows(
    spec: TableSpec, physical_rows: int, rng: random.Random
) -> List[Sequence]:
    """Generate ``physical_rows`` rows for a table spec."""
    return [
        tuple(col.generate(rng, i, physical_rows) for col in spec.columns)
        for i in range(physical_rows)
    ]
