"""Context feature map for bandit arms.

Each candidate index (arm) is summarized as a small, bounded feature
vector mixing what the workload window says about it (crude benefit,
usage) with what the catalog says about its shape (size, table scale,
leading-column selectivity) and with live write pressure.  The shared
:class:`~repro.bandit.linucb.RidgeModel` learns one weight vector over
these features, so reward evidence gathered on one arm generalizes to
structurally similar arms -- the property that lets the bandit cope
with ad-hoc workloads where no individual query ever repeats.

All features are deterministic functions of (catalog, tracker state)
and bounded (log-damped or ratios), keeping the design matrix well
conditioned without normalization passes.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.core.candidates import CandidateTracker
    from repro.engine.catalog import Catalog
    from repro.engine.index import IndexDef


#: Feature vector dimension (see :meth:`FeatureMap.vector`).
FEATURE_DIM = 10

#: Human-readable feature names, index-aligned with the vectors.
FEATURE_NAMES = (
    "bias",
    "log_smoothed_benefit",
    "log_window_benefit",
    "size_fraction",
    "log_table_rows",
    "is_materialized",
    "table_read_rate",
    "table_write_rate",
    "n_columns",
    "lead_selectivity",
)


class FeatureMap:
    """Builds per-arm context vectors.

    Args:
        catalog: Source of index sizes and column statistics.
        storage_budget_pages: Normalizer for the size feature.
        write_halflife: EWMA factor for the per-table write-rate signal
            (fraction of old signal retained per epoch).
    """

    def __init__(
        self,
        catalog: Catalog,
        storage_budget_pages: float,
        write_halflife: float = 0.5,
    ) -> None:
        self._catalog = catalog
        self._budget = max(1.0, storage_budget_pages)
        self._write_decay = write_halflife
        self._epoch_reads: Dict[str, int] = {}
        self._epoch_writes: Dict[str, int] = {}
        self._read_rate: Dict[str, float] = {}
        self._write_rate: Dict[str, float] = {}
        # table -> (row count, log rows, read pressure, write pressure):
        # the terms every arm on the table shares until the rates roll.
        self._table_terms: Dict[str, Tuple[float, float, float, float]] = {}
        # index -> (stats token, cost params, size fraction, column count,
        # lead-column selectivity): an arm's catalog-only terms, which
        # hold until its table's row count or statistics version moves.
        self._index_terms: Dict[IndexDef, tuple] = {}

    # ------------------------------------------------------------------
    # live workload signals
    def note_query(self, tables) -> None:
        """Record one query touching ``tables`` (read pressure)."""
        for table in tables:
            self._epoch_reads[table] = self._epoch_reads.get(table, 0) + 1

    def note_insert(self, table: str, rows: int) -> None:
        """Record an insert batch (write pressure)."""
        self._epoch_writes[table] = self._epoch_writes.get(table, 0) + rows

    def roll_epoch(self, epoch_length: int) -> None:
        """Fold the epoch's read/write tallies into the EWMA rates."""
        d = self._write_decay
        tables = set(self._read_rate) | set(self._write_rate)
        tables |= set(self._epoch_reads) | set(self._epoch_writes)
        for table in tables:
            reads = self._epoch_reads.get(table, 0) / max(1, epoch_length)
            writes = self._epoch_writes.get(table, 0) / max(1, epoch_length)
            self._read_rate[table] = (
                d * self._read_rate.get(table, 0.0) + (1.0 - d) * reads
            )
            self._write_rate[table] = (
                d * self._write_rate.get(table, 0.0) + (1.0 - d) * writes
            )
        self._epoch_reads = {}
        self._epoch_writes = {}
        self._table_terms = {}

    # ------------------------------------------------------------------
    def vector(
        self,
        index: IndexDef,
        tracker: CandidateTracker,
        materialized,
    ) -> List[float]:
        """The context vector for one arm, right now."""
        stats = tracker.stats_for(index)
        smoothed = stats.smoothed_benefit if stats is not None else 0.0
        window = stats.window_total() if stats is not None else 0.0
        table = index.table
        token = self._catalog.stats_token(table)
        rows = token[0]
        terms = self._table_terms.get(table)
        if terms is None or terms[0] != rows:
            terms = self._table_terms[table] = (
                rows,
                math.log10(1.0 + max(0, rows)),
                _log_damp(self._read_rate.get(table, 0.0)),
                _log_damp(self._write_rate.get(table, 0.0)),
            )
        params = self._catalog.params
        held = self._index_terms.get(index)
        if held is None or held[0] != token or held[1] is not params:
            lead = self._catalog.stats(table, index.columns[0])
            held = self._index_terms[index] = (
                token,
                params,
                min(4.0, self._catalog.index_size_pages(index) / self._budget),
                float(len(index.columns)),
                1.0 / max(1.0, lead.n_distinct),
            )
        return [
            1.0,
            _log_damp(smoothed),
            _log_damp(window),
            held[2],
            terms[1],
            1.0 if index in materialized else 0.0,
            terms[2],
            terms[3],
            held[3],
            held[4],
        ]

    def to_snapshot(self) -> Dict:
        """JSON-compatible serialization of the EWMA rate state."""
        return {
            "read_rate": dict(sorted(self._read_rate.items())),
            "write_rate": dict(sorted(self._write_rate.items())),
        }

    def restore(self, data: Optional[Dict]) -> None:
        """Inverse of :meth:`to_snapshot` (epoch tallies start empty)."""
        if not data:
            return
        self._read_rate = {
            str(k): float(v) for k, v in data.get("read_rate", {}).items()
        }
        self._write_rate = {
            str(k): float(v) for k, v in data.get("write_rate", {}).items()
        }
        self._table_terms = {}


def _log_damp(value: float) -> float:
    """Sign-preserving log damping: ``sign(v) * log1p(|v|)``."""
    return math.copysign(math.log1p(abs(value)), value) if value else 0.0
