"""Winner-only access path selection held to the code it replaced.

``best_access_path`` now compares one held cost per (scan, index) and
builds a node for the winner alone, and ``Optimizer.optimize`` hands a
one-table query's access path straight to ``_finalize``.  The path every
index used to get, the loop that kept the first strictly cheaper one and
the one-table optimization of that time are kept in ``oracle.py``; the
properties here require the plans to be ``==`` -- every field of every
node, costs bit for bit -- for any filters, any configuration (composite
indexes and indexes on another table included), any row count, a scan
retained across row moves, and exact cost ties between indexes, which
must break in name order whatever order the frozenset iterates in.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.catalog import Catalog, ColumnDef, TableDef
from repro.engine.datatypes import DataType
from repro.engine.stats import ColumnStats
from repro.optimizer.access import (
    best_access_path,
    crude_index_delta_cost,
    table_scan,
)
from repro.optimizer.optimizer import Optimizer
from repro.optimizer.plan import IndexScanNode
from repro.sql.ast import (
    BetweenPredicate,
    ColumnExpr,
    CompareOp,
    ComparisonPredicate,
    InPredicate,
    OrderItem,
    Query,
    SelectItem,
)
from tests.optimizer import oracle

#: ``a``, ``b`` and ``c`` share one width, so composite indexes that
#: consume the same filters tie exactly.
COLUMNS = {
    "a": DataType.INT,
    "b": DataType.INT,
    "c": DataType.INT,
    "d": DataType.FLOAT,
    "e": DataType.DATE,
}
#: Installed statistics (``e`` stays on the row-count-derived fallback).
STATS = {
    "a": ColumnStats(n_distinct=5_000, min_value=0, max_value=10_000),
    "b": ColumnStats(n_distinct=50, min_value=0, max_value=100, correlation=0.7),
    "c": ColumnStats(n_distinct=200_000, min_value=0, max_value=10**6, correlation=-0.3),
    "d": ColumnStats(n_distinct=10**6, min_value=0.0, max_value=1000.0, correlation=1.0),
}
KEYS = [
    ("a",), ("b",), ("c",), ("d",), ("e",),
    ("a", "b"), ("a", "c"), ("b", "a"), ("a", "b", "c"), ("a", "c", "b"), ("d", "a"),
]
ROWS = [0, 1, 730, 50_000, 1_000_000.0, 3.5e7]


def _catalog(rows=1_000_000) -> Catalog:
    catalog = Catalog()
    columns = [ColumnDef(name, dtype) for name, dtype in COLUMNS.items()]
    catalog.add_table(TableDef("t", columns, row_count=rows))
    catalog.add_table(TableDef("u", [ColumnDef("a", DataType.INT)], row_count=10_000))
    for name, stats in STATS.items():
        catalog.set_stats("t", name, stats)
    return catalog


def _index(catalog, key):
    return catalog.composite_index_for("t", key)


def _col(name):
    return ColumnExpr(name, "t")


_value = st.integers(-10, 10_100)


def _predicates(columns):
    column = st.sampled_from(sorted(columns)).map(_col)
    return st.one_of(
        st.builds(ComparisonPredicate, column, st.sampled_from(list(CompareOp)), _value),
        st.builds(
            lambda column, low, width: BetweenPredicate(column, low, low + width),
            column,
            _value,
            st.integers(0, 5_000),
        ),
        st.builds(
            lambda column, values: InPredicate(column, tuple(values)),
            column,
            st.lists(_value, min_size=1, max_size=4),
        ),
    )


_filters = st.lists(_predicates(COLUMNS), max_size=4)
#: A scan is retained across row moves only while every filtered column
#: reads installed statistics (the fallback ones derive from the row count).
_installed_filters = st.lists(_predicates(STATS), max_size=4)
_keys = st.lists(st.sampled_from(KEYS), max_size=6, unique=True)


def _config(catalog, keys, other_table):
    config = [_index(catalog, key) for key in keys]
    if other_table:
        config.append(catalog.index_for("u", "a"))
    return frozenset(config)


class TestBestAccessPathAgainstOracle:
    @given(_filters, _keys, st.booleans(), st.sampled_from(ROWS))
    @settings(deadline=None)
    def test_same_plan_from_a_fresh_scan(self, filters, keys, other_table, rows):
        catalog = _catalog(rows)
        config = _config(catalog, keys, other_table)
        got = best_access_path(catalog, "t", filters, config)
        assert got == oracle.best_access_path(catalog, "t", filters, config)
        for index in config:
            if index.table == "t":
                assert crude_index_delta_cost(catalog, index, filters) == (
                    oracle.crude_index_delta_cost(catalog, index, filters)
                )

    @given(
        _installed_filters,
        st.lists(_keys, min_size=1, max_size=4),
        st.lists(st.sampled_from(ROWS), min_size=1, max_size=4),
    )
    @settings(deadline=None)
    def test_same_plan_from_a_scan_retained_across_row_moves(
        self, filters, configs, row_counts
    ):
        catalog = _catalog()
        scan = table_scan(catalog, "t", filters)
        for rows in row_counts:
            catalog.table("t").row_count = rows
            scan.reprice(catalog)
            # Twice per configuration: the second reads held costs only.
            for keys in configs + configs:
                config = _config(catalog, keys, False)
                got = best_access_path(catalog, "t", scan.filters, config, scan)
                assert got == oracle.best_access_path(catalog, "t", filters, config)
                for index in config:
                    assert crude_index_delta_cost(catalog, index, filters, scan) == (
                        oracle.crude_index_delta_cost(catalog, index, filters)
                    )


class TestTiesBreakInNameOrder:
    # Composite indexes leading on ``a`` with equal-width tails consume
    # the one filter on ``a`` alike: equal costs, bit for bit.
    TIED = [("a", "c", "b"), ("a", "b", "c"), ("a", "c"), ("a", "b")]

    def test_tied_costs_are_exact(self):
        catalog = _catalog()
        filters = [ComparisonPredicate(_col("a"), CompareOp.EQ, 7)]
        scan = table_scan(catalog, "t", filters)
        pairs = [_index(catalog, key) for key in self.TIED[2:]]
        costs = {scan.index_cost(catalog, index) for index in pairs}
        assert len(costs) == 1 and costs.pop() < scan.seq.cost

    @given(st.permutations(TIED), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_first_name_wins_in_any_insertion_order(self, keys, other_table):
        catalog = _catalog()
        filters = [ComparisonPredicate(_col("a"), CompareOp.EQ, 7)]
        config = _config(catalog, keys, other_table)
        got = best_access_path(catalog, "t", filters, config)
        assert isinstance(got, IndexScanNode)
        assert got.index.name == "ix_t_a_b"
        assert got == oracle.best_access_path(catalog, "t", filters, config)
        query = Query(tables=["t"], filters=filters)
        result = Optimizer(catalog).optimize(query, config)
        assert result == oracle.optimize_one_table(Optimizer(catalog), query, config)
        assert result.indexes_used == frozenset((got.index,))


class TestOneTableOptimizeAgainstOracle:
    @given(
        _filters,
        _keys,
        st.booleans(),
        st.sampled_from(ROWS),
        st.sampled_from([None, "a", "b", "e"]),
        st.sampled_from([None, 10]),
    )
    @settings(deadline=None)
    def test_same_result(self, filters, keys, other_table, rows, order, limit):
        catalog = _catalog(rows)
        config = _config(catalog, keys, other_table)
        query = Query(
            tables=["t"],
            select=[SelectItem(_col("a")), SelectItem(_col("d"))],
            filters=filters,
            order_by=[OrderItem(_col(order))] if order else [],
            limit=limit,
        )
        optimizer = Optimizer(catalog)
        got = optimizer.optimize(query, config)
        want = oracle.optimize_one_table(Optimizer(catalog), query, config)
        assert got == want
        assert got.indexes_used == want.indexes_used == want.plan.indexes_used()
        # A different params object starts every term over.
        catalog.params = dataclasses.replace(catalog.params, random_page_cost=1.1)
        assert Optimizer(catalog).optimize(query, config) == (
            oracle.optimize_one_table(Optimizer(catalog), query, config)
        )
