"""Adversarial scenario: a cost model that over-promises index benefit.

The guardrail subsystem (``repro.guardrails``) exists for exactly one
failure mode: the optimizer's *predicted* benefit of an index diverges
from its *observed* benefit at execution time.  This module manufactures
that divergence deterministically so benchmarks and tests can measure
how fast quarantine reacts and how much regret it saves.

The construction: a ``facts`` table whose ``f_skew`` column physically
holds a heavy point mass (by default 85% of rows share one hot value),
while the catalog statistics *claim* the column is uniform over a large
domain -- the kind of lie a stale ANALYZE or a mis-scaled statistics
import produces in real systems.  An equality predicate on the hot value
is then predicted to be needle-selective (``1/n_distinct``), so the
what-if optimizer forecasts a large gain for an index on ``f_skew``;
executing the index plan actually touches most of the heap, so the
observed gain is near zero.  A second column, ``f_grp``, keeps truthful
statistics -- its index genuinely helps, and guardrails must leave it
alone (no false quarantines).

Usage::

    store = build_adversarial_store(mislead=True)
    workload = misleading_workload(store.catalog, length=240)
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.engine.catalog import Catalog, ColumnDef, TableDef
from repro.engine.datatypes import DataType
from repro.engine.stats import ColumnStats
from repro.engine.storage import PhysicalStore
from repro.sql.ast import (
    AggFunc,
    Aggregate,
    ColumnExpr,
    CompareOp,
    ComparisonPredicate,
    Query,
    SelectItem,
)
from repro.workload.phases import Workload

if TYPE_CHECKING:
    from repro.engine.cost_params import CostParams

#: Table and column names of the adversarial schema.
FACTS_TABLE = "facts"
SKEW_COLUMN = "f_skew"
HONEST_COLUMN = "f_grp"

#: The value carrying the physical point mass.
HOT_VALUE = 7

#: Claimed (and, for the cold tail, actual) domain of ``f_skew``.
SKEW_DOMAIN = 10_000

#: Domain of the honest ``f_grp`` column -- wide enough that equality
#: lookups are genuinely selective, so the honest index truly earns its
#: predicted benefit (guardrails must verify it, not quarantine it).
HONEST_DOMAIN = 2_000


def build_adversarial_store(
    rows: int = 4_000,
    seed: int = 7,
    skew_fraction: float = 0.85,
    mislead: bool = True,
    params: Optional[CostParams] = None,
) -> PhysicalStore:
    """Build the facts table with (optionally) lying statistics.

    Args:
        rows: Physical row count of the facts table.
        seed: RNG seed for reproducible data.
        skew_fraction: Fraction of rows whose ``f_skew`` equals
            :data:`HOT_VALUE`.
        mislead: When True, overwrite the measured ``f_skew`` statistics
            with a uniform claim over :data:`SKEW_DOMAIN` distinct values
            (the adversarial lie).  When False, statistics stay truthful
            -- the control arm where guardrails must change nothing.
        params: Cost parameters; defaults to the engine's standard.

    Returns:
        A populated :class:`~repro.engine.storage.PhysicalStore` whose
        catalog carries physical-scale statistics (predicted and observed
        costs live on the same scale, so benchmark regret is directly
        comparable).
    """
    rng = random.Random(seed)
    catalog = Catalog(params=params)
    catalog.add_table(
        TableDef(
            name=FACTS_TABLE,
            columns=[
                ColumnDef("f_id", DataType.INT),
                ColumnDef(SKEW_COLUMN, DataType.INT),
                ColumnDef(HONEST_COLUMN, DataType.INT),
            ],
        )
    )
    store = PhysicalStore(catalog)
    heap = store.create_heap(FACTS_TABLE)
    heap.insert_many(
        (
            i + 1,
            HOT_VALUE
            if rng.random() < skew_fraction
            else rng.randint(1, SKEW_DOMAIN),
            rng.randint(1, HONEST_DOMAIN),
        )
        for i in range(rows)
    )
    store.analyze(FACTS_TABLE)
    if mislead:
        # The lie: uniform over SKEW_DOMAIN distinct values, no
        # histogram.  Equality on any value -- including the hot one --
        # is now predicted at 1/SKEW_DOMAIN selectivity.
        catalog.set_stats(
            FACTS_TABLE,
            SKEW_COLUMN,
            ColumnStats(
                n_distinct=float(SKEW_DOMAIN),
                min_value=1,
                max_value=SKEW_DOMAIN,
            ),
        )
    return store


def misleading_workload(
    catalog: Catalog,
    length: int = 240,
    seed: int = 0,
    hot_fraction: float = 0.7,
) -> Workload:
    """A query stream dominated by the over-promised predicate.

    ``hot_fraction`` of the queries are ``COUNT(*) WHERE f_skew = HOT``
    (predicted selective, actually not); the rest are honest equality
    lookups on ``f_grp`` whose index genuinely earns its keep.  Both
    columns become COLT candidates, so a tuner without guardrails
    materializes the f_skew index and keeps paying for it.

    Args:
        catalog: The adversarial store's catalog (only used for shape;
            predicates are bound directly, not drawn from statistics).
        length: Number of queries (at least 1).
        seed: RNG seed.
        hot_fraction: Fraction of hot-value skew queries.
    """
    if length < 1:
        raise ValueError(f"workload length must be positive, got {length}")
    del catalog  # shape is fixed; kept for builder-signature symmetry
    rng = random.Random(seed)
    queries = []
    source = []
    for _ in range(length):
        if rng.random() < hot_fraction:
            queries.append(_equality_count(SKEW_COLUMN, HOT_VALUE))
            source.append("misleading-hot")
        else:
            queries.append(
                _equality_count(HONEST_COLUMN, rng.randint(1, HONEST_DOMAIN))
            )
            source.append("honest")
    return Workload(
        queries=queries,
        source=source,
        description=(
            f"misleading(n={length}, hot={hot_fraction:.0%}, "
            f"table={FACTS_TABLE})"
        ),
    )


def _equality_count(column: str, value: int) -> Query:
    return _count_query(FACTS_TABLE, [(column, CompareOp.EQ, value)])


def _count_query(
    table: str, predicates: Sequence[Tuple[str, CompareOp, int]]
) -> Query:
    return Query(
        tables=[table],
        select=[SelectItem(expr=Aggregate(func=AggFunc.COUNT, arg=None))],
        filters=[
            ComparisonPredicate(
                column=ColumnExpr(column, table), op=op, value=value
            )
            for column, op, value in predicates
        ],
    )


# ======================================================================
# Bandit scenario suite: the four regimes where what-if tuners break
# ======================================================================
#
# Each builder returns a :class:`Scenario`: a fresh physical store plus
# a deterministic event stream (queries and insert batches).  Builders
# are *pure functions of their arguments* -- no dict-order iteration, no
# global RNG -- so two processes with the same seed produce streams with
# identical :meth:`Scenario.signature` hashes (PR 4's seeded-run
# discipline, enforced by a cross-process test).


@dataclasses.dataclass(frozen=True)
class ScenarioEvent:
    """One event of a scenario stream.

    Attributes:
        kind: ``"query"`` or ``"insert"``.
        query: The bound query (query events only).
        table: Insert target (insert events only).
        rows: Concrete rows to insert (insert events only).
    """

    kind: str
    query: Optional[Query] = None
    table: Optional[str] = None
    rows: Optional[Tuple[Tuple, ...]] = None


@dataclasses.dataclass
class Scenario:
    """A self-contained adversarial benchmark scenario.

    Attributes:
        name: Registry key (also the benchmark arm label).
        description: One-line summary of the failure regime.
        store: A fresh physical store (each builder call creates its
            own -- tuners mutate stores, so engine arms never share one).
        events: The deterministic event stream.
        drift_at: Event index where the query distribution flips
            (drift scenario only; None elsewhere).
    """

    name: str
    description: str
    store: PhysicalStore
    events: List[ScenarioEvent]
    drift_at: Optional[int] = None

    @property
    def catalog(self) -> Catalog:
        """The store's catalog."""
        return self.store.catalog

    @property
    def queries(self) -> List[Query]:
        """Just the query events, in order."""
        return [e.query for e in self.events if e.kind == "query"]

    def write_fraction(self) -> float:
        """Fraction of events that are insert batches."""
        if not self.events:
            return 0.0
        writes = sum(1 for e in self.events if e.kind == "insert")
        return writes / len(self.events)

    def repeat_rate(self) -> float:
        """Fraction of query events whose exact shape appeared before."""
        seen = set()
        repeats = 0
        total = 0
        for event in self.events:
            if event.kind != "query":
                continue
            total += 1
            key = _canon_query(event.query)
            if key in seen:
                repeats += 1
            seen.add(key)
        return repeats / total if total else 0.0

    def signature(self) -> str:
        """SHA-256 over the canonical event stream (cross-process stable)."""
        digest = hashlib.sha256()
        for event in self.events:
            digest.update(_canon_event(event).encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()


def _canon_query(query: Query) -> str:
    parts = [",".join(sorted(query.tables))]
    for pred in query.filters:
        parts.append(
            f"{pred.column.table}.{pred.column.column}"
            f"{pred.op.value}{pred.value!r}"
        )
    return "|".join(parts)


def _canon_event(event: ScenarioEvent) -> str:
    if event.kind == "query":
        return "q:" + _canon_query(event.query)
    rows = ";".join(",".join(map(str, row)) for row in event.rows or ())
    return f"i:{event.table}:{rows}"


def build_misleading_scenario(
    mislead: bool = True, length: int = 240, seed: int = 0
) -> Scenario:
    """:func:`misleading_workload` over the facts store, as a scenario.

    ``mislead=False`` is clean end to end: uniform data and truthful
    statistics (skewed data alone defeats ANALYZE's uniform-selectivity
    model, so it would not exercise the no-false-positive path).  Not
    one of :data:`SCENARIOS`, the bandit suite.
    """
    store = build_adversarial_store(
        mislead=mislead, skew_fraction=0.85 if mislead else 0.0
    )
    workload = misleading_workload(store.catalog, length=length, seed=seed)
    return Scenario(
        name="misleading" if mislead else "clean",
        description="facts store under the f_skew-heavy query stream",
        store=store,
        events=[ScenarioEvent(kind="query", query=q) for q in workload.queries],
    )


# ----------------------------------------------------------------------
# 1. Ad-hoc: never-repeating queries over columns with lying statistics
# ----------------------------------------------------------------------
ADHOC_TABLE = "wide"
ADHOC_LIE_COLUMNS = 8
ADHOC_HOT = 3
ADHOC_ROWS = 3_000
ADHOC_CLAIMED_DOMAIN = 10_000


def build_adhoc_scenario(length: int = 240, seed: int = 11) -> Scenario:
    """Ad-hoc regime: no query ever repeats, and statistics over-promise.

    A ``wide`` table carries :data:`ADHOC_LIE_COLUMNS` skewed columns
    (80% of rows share one hot value each) whose statistics *claim*
    uniformity over :data:`ADHOC_CLAIMED_DOMAIN` values.  Every query
    pairs an equality on a rotating skewed column with a fresh never-
    repeating id-range predicate, so no two queries share a shape:
    COLT's per-cluster profiling gets one sample per cluster and its
    crude estimates trust the lie, so it materializes index after index
    that hurts at execution time.  A bandit generalizes the observed
    near-zero rewards across arms through the shared linear model.
    """
    rng = random.Random(seed)
    columns = [ColumnDef("w_id", DataType.INT)] + [
        ColumnDef(f"w_c{j:02d}", DataType.INT) for j in range(ADHOC_LIE_COLUMNS)
    ]
    catalog = Catalog()
    catalog.add_table(TableDef(name=ADHOC_TABLE, columns=columns))
    store = PhysicalStore(catalog)
    heap = store.create_heap(ADHOC_TABLE)
    heap.insert_many(
        tuple(
            [i + 1]
            + [
                ADHOC_HOT
                if rng.random() < 0.8
                else rng.randint(1, ADHOC_CLAIMED_DOMAIN)
                for _ in range(ADHOC_LIE_COLUMNS)
            ]
        )
        for i in range(ADHOC_ROWS)
    )
    store.analyze(ADHOC_TABLE)
    for j in range(ADHOC_LIE_COLUMNS):
        catalog.set_stats(
            ADHOC_TABLE,
            f"w_c{j:02d}",
            ColumnStats(
                n_distinct=float(ADHOC_CLAIMED_DOMAIN),
                min_value=1,
                max_value=ADHOC_CLAIMED_DOMAIN,
            ),
        )

    events: List[ScenarioEvent] = []
    for i in range(length):
        column = f"w_c{(i * 5 + seed) % ADHOC_LIE_COLUMNS:02d}"
        lo = rng.randint(1, ADHOC_ROWS - 400)
        events.append(
            ScenarioEvent(
                kind="query",
                query=_count_query(
                    ADHOC_TABLE,
                    [
                        (column, CompareOp.EQ, ADHOC_HOT),
                        ("w_id", CompareOp.GE, lo),
                        ("w_id", CompareOp.LE, lo + 400),
                    ],
                ),
            )
        )
    return Scenario(
        name="adhoc",
        description=(
            "never-repeating ad-hoc queries over columns whose statistics "
            "over-promise index benefit"
        ),
        store=store,
        events=events,
    )


# ----------------------------------------------------------------------
# 2. HTAP: heavy write mix shifting the index cost/benefit balance
# ----------------------------------------------------------------------
HTAP_TABLE = "orders"
HTAP_ROWS = 2_500
HTAP_CUST_DOMAIN = 1_500
HTAP_REGION_DOMAIN = 8
HTAP_WRITE_FRACTION = 0.3
HTAP_BATCH_ROWS = 40


def build_htap_scenario(length: int = 300, seed: int = 13) -> Scenario:
    """HTAP regime: selective lookups interleaved with heavy writes.

    Statistics are honest; the difficulty is the write mix -- roughly
    :data:`HTAP_WRITE_FRACTION` of events are insert batches, so every
    materialized index pays continuous maintenance, shrinking the margin
    a lookup index earns.  The tuner that tracks *observed* cost under
    write pressure keeps only indexes that pay for their upkeep.
    """
    rng = random.Random(seed)
    catalog = Catalog()
    catalog.add_table(
        TableDef(
            name=HTAP_TABLE,
            columns=[
                ColumnDef("o_id", DataType.INT),
                ColumnDef("o_cust", DataType.INT),
                ColumnDef("o_region", DataType.INT),
            ],
        )
    )
    store = PhysicalStore(catalog)
    heap = store.create_heap(HTAP_TABLE)
    heap.insert_many(
        (
            i + 1,
            rng.randint(1, HTAP_CUST_DOMAIN),
            rng.randint(1, HTAP_REGION_DOMAIN),
        )
        for i in range(HTAP_ROWS)
    )
    store.analyze(HTAP_TABLE)

    events: List[ScenarioEvent] = []
    next_id = HTAP_ROWS
    for _ in range(length):
        if rng.random() < HTAP_WRITE_FRACTION:
            rows = tuple(
                (
                    next_id + k + 1,
                    rng.randint(1, HTAP_CUST_DOMAIN),
                    rng.randint(1, HTAP_REGION_DOMAIN),
                )
                for k in range(HTAP_BATCH_ROWS)
            )
            next_id += HTAP_BATCH_ROWS
            events.append(
                ScenarioEvent(kind="insert", table=HTAP_TABLE, rows=rows)
            )
        elif rng.random() < 0.8:
            events.append(
                ScenarioEvent(
                    kind="query",
                    query=_count_query(
                        HTAP_TABLE,
                        [
                            (
                                "o_cust",
                                CompareOp.EQ,
                                rng.randint(1, HTAP_CUST_DOMAIN),
                            )
                        ],
                    ),
                )
            )
        else:
            events.append(
                ScenarioEvent(
                    kind="query",
                    query=_count_query(
                        HTAP_TABLE,
                        [
                            (
                                "o_region",
                                CompareOp.EQ,
                                rng.randint(1, HTAP_REGION_DOMAIN),
                            )
                        ],
                    ),
                )
            )
    return Scenario(
        name="htap",
        description=(
            "HTAP mix: selective customer lookups under a heavy insert "
            "stream charging index maintenance"
        ),
        store=store,
        events=events,
    )


# ----------------------------------------------------------------------
# 3. Correlated columns: the independence assumption is the lie
# ----------------------------------------------------------------------
CORR_TABLE = "corr"
CORR_ROWS = 6_000
#: Domain of the correlated pair.  Chosen so the *predicted* conjunction
#: (independence: ``1/DOMAIN^2``) looks needle-selective -- a composite
#: index plan is forecast cheaper than the sequential scan -- while the
#: *actual* fraction (``1/DOMAIN``) makes that plan several times more
#: expensive than the scan at execution time.  Each single-column index
#: is honestly priced (``1/DOMAIN`` predicted and actual) and correctly
#: rejected, so only the correlation lie misleads.
CORR_DOMAIN = 30
CORR_HONEST_DOMAIN = 1_200


def build_correlated_scenario(length: int = 280, seed: int = 17) -> Scenario:
    """Misleading-stats regime: perfectly correlated filter columns.

    ``c_a`` and ``c_b`` always hold the same value drawn from a small
    domain, and every per-column statistic is *honest* -- the lie is the
    optimizer's independence assumption, which prices the conjunctive
    predicate ``c_a = v AND c_b = v`` at ``1/64`` selectivity when the
    true fraction is ``1/8``.  A what-if tuner therefore materializes a
    composite index whose executed plans touch an eighth of the table
    through random probes; observed rewards expose the mistake
    immediately.  A minority of honest ``c_h`` lookups gives both
    engines one genuinely good index to find.
    """
    rng = random.Random(seed)
    catalog = Catalog()
    catalog.add_table(
        TableDef(
            name=CORR_TABLE,
            columns=[
                ColumnDef("c_id", DataType.INT),
                ColumnDef("c_a", DataType.INT),
                ColumnDef("c_b", DataType.INT),
                ColumnDef("c_h", DataType.INT),
            ],
        )
    )
    store = PhysicalStore(catalog)
    heap = store.create_heap(CORR_TABLE)

    def _row(i: int) -> Tuple[int, int, int, int]:
        v = rng.randint(1, CORR_DOMAIN)
        return (i + 1, v, v, rng.randint(1, CORR_HONEST_DOMAIN))

    heap.insert_many(_row(i) for i in range(CORR_ROWS))
    store.analyze(CORR_TABLE)

    events: List[ScenarioEvent] = []
    for _ in range(length):
        if rng.random() < 0.7:
            v = rng.randint(1, CORR_DOMAIN)
            events.append(
                ScenarioEvent(
                    kind="query",
                    query=_count_query(
                        CORR_TABLE,
                        [
                            ("c_a", CompareOp.EQ, v),
                            ("c_b", CompareOp.EQ, v),
                        ],
                    ),
                )
            )
        else:
            events.append(
                ScenarioEvent(
                    kind="query",
                    query=_count_query(
                        CORR_TABLE,
                        [
                            (
                                "c_h",
                                CompareOp.EQ,
                                rng.randint(1, CORR_HONEST_DOMAIN),
                            )
                        ],
                    ),
                )
            )
    return Scenario(
        name="correlated",
        description=(
            "correlated filter columns: honest per-column statistics, "
            "lying independence assumption"
        ),
        store=store,
        events=events,
    )


# ----------------------------------------------------------------------
# 4. Drift: the useful column flips mid-epoch
# ----------------------------------------------------------------------
DRIFT_TABLE = "clicks"
DRIFT_ROWS = 3_000
DRIFT_DOMAIN = 1_000
DRIFT_AT = 157


def build_drift_scenario(
    length: int = 320, seed: int = 19, drift_at: int = DRIFT_AT
) -> Scenario:
    """Drift regime: the workload flips to a different column mid-epoch.

    All statistics are honest; the challenge is adaptation speed.  The
    first ``drift_at`` queries filter on ``k_early``; from then on every
    query filters on ``k_late``.  ``drift_at`` deliberately does not
    align with any common epoch length, so the flip lands mid-epoch and
    stale benefit windows (COLT) or stale reward evidence (a bandit
    without forgetting) delay the reconfiguration.
    """
    rng = random.Random(seed)
    catalog = Catalog()
    catalog.add_table(
        TableDef(
            name=DRIFT_TABLE,
            columns=[
                ColumnDef("k_id", DataType.INT),
                ColumnDef("k_early", DataType.INT),
                ColumnDef("k_late", DataType.INT),
            ],
        )
    )
    store = PhysicalStore(catalog)
    heap = store.create_heap(DRIFT_TABLE)
    heap.insert_many(
        (
            i + 1,
            rng.randint(1, DRIFT_DOMAIN),
            rng.randint(1, DRIFT_DOMAIN),
        )
        for i in range(DRIFT_ROWS)
    )
    store.analyze(DRIFT_TABLE)

    events: List[ScenarioEvent] = []
    for i in range(length):
        column = "k_early" if i < drift_at else "k_late"
        events.append(
            ScenarioEvent(
                kind="query",
                query=_count_query(
                    DRIFT_TABLE,
                    [(column, CompareOp.EQ, rng.randint(1, DRIFT_DOMAIN))],
                ),
            )
        )
    return Scenario(
        name="drift",
        description=(
            "mid-epoch drift: the filtered column flips at query "
            f"{drift_at}"
        ),
        store=store,
        events=events,
        drift_at=drift_at,
    )


#: Scenario builders by name (the benchmark and CLI iterate this).
SCENARIOS = {
    "adhoc": build_adhoc_scenario,
    "htap": build_htap_scenario,
    "correlated": build_correlated_scenario,
    "drift": build_drift_scenario,
}
