"""Column statistics and histograms.

The optimizer's selectivity estimates are driven by per-column statistics
in the style of PostgreSQL's ``pg_statistic``: distinct counts, min/max
bounds, and equi-depth histograms.  Statistics can either be *measured*
from physical data (``ColumnStats.from_values``) or *declared* directly,
which is how the workload generator installs paper-scale statistics over
down-sampled physical tables (see DESIGN.md section 2).
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:
    from repro.engine.datatypes import DataType


DEFAULT_HISTOGRAM_BUCKETS = 64


@dataclasses.dataclass(frozen=True)
class Histogram:
    """Equi-depth histogram over an ordered domain.

    ``bounds`` holds ``k + 1`` bucket boundaries for ``k`` buckets, with
    each bucket covering roughly the same number of rows.  Values are the
    engine-internal representation (numbers for numeric/date columns,
    strings for text).
    """

    bounds: tuple

    @property
    def num_buckets(self) -> int:
        """Number of equi-depth buckets."""
        return max(0, len(self.bounds) - 1)

    @classmethod
    def from_values(
        cls, values: Sequence, num_buckets: int = DEFAULT_HISTOGRAM_BUCKETS
    ) -> "Histogram":
        """Build an equi-depth histogram from a sample of values."""
        ordered = sorted(values)
        if not ordered:
            return cls(bounds=())
        buckets = min(num_buckets, len(ordered))
        bounds = [ordered[0]]
        for i in range(1, buckets):
            bounds.append(ordered[(i * len(ordered)) // buckets])
        bounds.append(ordered[-1])
        return cls(bounds=tuple(bounds))

    def fraction_below(self, value) -> float:
        """Estimate the fraction of rows strictly below ``value``.

        Repeated boundary values (heavy skew) are handled by seating the
        strict bound *before* the run of equal boundaries.
        """
        if self.num_buckets == 0:
            return 0.0
        if value <= self.bounds[0]:
            return 0.0
        if value > self.bounds[-1]:
            return 1.0
        idx = bisect.bisect_left(self.bounds, value) - 1
        idx = max(0, min(idx, self.num_buckets - 1))
        return self._interpolated(idx, value)

    def fraction_at_most(self, value) -> float:
        """Estimate the fraction of rows with values ``<= value``.

        Uses the right edge of any run of equal boundaries, so point
        masses (e.g. 90% of rows sharing one value) are fully counted.
        """
        if self.num_buckets == 0:
            return 0.0
        if value < self.bounds[0]:
            return 0.0
        if value >= self.bounds[-1]:
            return 1.0
        idx = bisect.bisect_right(self.bounds, value) - 1
        idx = max(0, min(idx, self.num_buckets - 1))
        return self._interpolated(idx, value)

    def _interpolated(self, idx: int, value) -> float:
        lo, hi = self.bounds[idx], self.bounds[idx + 1]
        if isinstance(lo, str) or hi == lo:
            within = 0.5
        else:
            within = (value - lo) / (hi - lo)
            within = min(1.0, max(0.0, within))
        return (idx + within) / self.num_buckets

    def range_fraction(self, low, high) -> float:
        """Estimate the fraction of rows with ``low <= value <= high``."""
        if high < low:
            return 0.0
        frac = self.fraction_at_most(high) - self.fraction_below(low)
        return min(1.0, max(0.0, frac))


@dataclasses.dataclass(frozen=True)
class ColumnStats:
    """Summary statistics for one column.

    Attributes:
        n_distinct: Estimated number of distinct values.
        min_value: Smallest value (engine representation).
        max_value: Largest value (engine representation).
        histogram: Optional equi-depth histogram; when absent, range
            selectivities fall back to uniform interpolation over
            ``[min_value, max_value]``.
        correlation: Physical-order correlation in [-1, 1]; 1.0 means the
            heap is perfectly ordered by this column.  Used by the index
            scan cost model to interpolate between sequential and random
            page fetches, as PostgreSQL does.
    """

    n_distinct: float
    min_value: object
    max_value: object
    histogram: Optional[Histogram] = None
    correlation: float = 0.0

    @classmethod
    def from_values(
        cls,
        values: Sequence,
        num_buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
    ) -> "ColumnStats":
        """Measure statistics from actual column values (ANALYZE)."""
        if len(values) == 0:
            return cls(n_distinct=0.0, min_value=None, max_value=None)
        distinct = len(set(values))
        ordered = sorted(values)
        correlation = _order_correlation(values)
        return cls(
            n_distinct=float(distinct),
            min_value=ordered[0],
            max_value=ordered[-1],
            histogram=Histogram.from_values(values, num_buckets),
            correlation=correlation,
        )

    def scaled(self, factor: float) -> "ColumnStats":
        """Return a copy with ``n_distinct`` scaled by ``factor``.

        Used when statistics measured on a sample are promoted to describe
        a table ``factor`` times larger.  Distinct counts scale sub-linearly
        in general; we use the common first-order approximation of scaling
        linearly but never past the (scaled) row count, which callers
        enforce.
        """
        return dataclasses.replace(self, n_distinct=self.n_distinct * factor)

    def eq_selectivity(self, value) -> float:
        """Selectivity of ``column = value``."""
        if self.n_distinct <= 0:
            return 0.0
        if self._out_of_bounds(value):
            return 0.0
        return 1.0 / self.n_distinct

    def range_selectivity(self, low, high) -> float:
        """Selectivity of ``low <= column <= high`` (either bound optional)."""
        if self.min_value is None:
            return 0.0
        lo = self.min_value if low is None else low
        hi = self.max_value if high is None else high
        if self.histogram is not None and self.histogram.num_buckets > 0:
            frac = self.histogram.range_fraction(lo, hi)
        else:
            frac = self._uniform_fraction(lo, hi)
        # An inclusive range covering at least one point matches at least
        # one distinct value's worth of rows.
        if hi >= lo and self.n_distinct > 0:
            frac = max(frac, 1.0 / self.n_distinct)
        return min(1.0, max(0.0, frac))

    def _uniform_fraction(self, low, high) -> float:
        if isinstance(self.min_value, str) or self.max_value == self.min_value:
            return 0.5 if high >= low else 0.0
        span = self.max_value - self.min_value
        lo = max(low, self.min_value)
        hi = min(high, self.max_value)
        if hi < lo:
            return 0.0
        return (hi - lo) / span

    def _out_of_bounds(self, value) -> bool:
        if self.min_value is None:
            return True
        try:
            return value < self.min_value or value > self.max_value
        except TypeError:
            return False


def _order_correlation(values: Sequence) -> float:
    """Spearman-style correlation between heap order and value order."""
    n = len(values)
    if n < 2:
        return 1.0
    ranked = sorted(range(n), key=lambda i: (values[i], i))
    rank_of = [0] * n
    for rank, idx in enumerate(ranked):
        rank_of[idx] = rank
    mean = (n - 1) / 2.0
    num = sum((i - mean) * (rank_of[i] - mean) for i in range(n))
    den = sum((i - mean) ** 2 for i in range(n))
    if den == 0:
        return 1.0
    return max(-1.0, min(1.0, num / den))


def default_stats_for(dtype: DataType, row_count: float) -> ColumnStats:
    """Fallback statistics when a column has never been analyzed."""
    distinct = max(1.0, min(row_count, 200.0))
    if dtype.is_numeric:
        return ColumnStats(n_distinct=distinct, min_value=0, max_value=max(1, int(row_count)))
    return ColumnStats(n_distinct=distinct, min_value="", max_value="~")
