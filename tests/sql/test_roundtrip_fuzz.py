"""Seeded fuzz harness for the render → parse → bind round trip.

Random bound query ASTs are generated straight from the catalog schema
(tables, columns, dtype-correct literals), rendered to SQL text, then
pushed back through the parser and binder.  The re-bound query must be
structurally equivalent to the original -- same tables, projections,
filters (with identical literal values, including DATE ordinals), joins,
grouping, ordering, and limit.

Literal generation stays inside the renderer's exact-round-trip domain:
floats are either rounded to two decimals (``repr`` renders those
positionally) or tiny / huge enough that ``repr`` prints an exponent
(``1.03e-05``, ``4.2e+17``).  Strings draw from an alphabet that holds the
quote character: the renderer doubles it and the scanner reads it back.
"""

import datetime
import random
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.datatypes import DataType, date_to_ordinal
from repro.sql.ast import (
    Aggregate,
    AggFunc,
    BetweenPredicate,
    ColumnExpr,
    CompareOp,
    ComparisonPredicate,
    InPredicate,
    JoinPredicate,
    OrderItem,
    Query,
    SelectItem,
)
from repro.sql.binder import bind_query
from repro.sql.parser import parse_query
from repro.sql.render import render_query
from repro.workload.datagen import build_catalog

# Equi-join pairs with matching key domains in the TPC-H-style schema.
JOIN_PAIRS = [
    (("orders_1", "o_custkey"), ("customer_1", "c_custkey")),
    (("lineitem_1", "l_orderkey"), ("orders_1", "o_orderkey")),
    (("supplier_1", "s_nationkey"), ("nation_1", "n_nationkey")),
    (("partsupp_1", "ps_partkey"), ("part_1", "p_partkey")),
]

RANGE_TYPES = (DataType.INT, DataType.FLOAT, DataType.DATE)

EXPONENTS = (-300, -12, -6, -5, 16, 17, 22, 300)

TEXT_ALPHABET = string.ascii_lowercase + string.digits + "'"


@pytest.fixture(scope="module")
def catalog():
    return build_catalog(instances=1)


def _literal(rng, dtype):
    if dtype is DataType.INT:
        return rng.randint(-9_999, 9_999)
    if dtype is DataType.FLOAT:
        if rng.random() < 0.15:
            # Below 1e-4 and from 1e16 up repr() prints an exponent.
            return rng.uniform(1.0, 10.0) * 10.0 ** rng.choice(EXPONENTS)
        # Two decimals: repr() renders positionally, never scientific.
        return round(rng.uniform(0.01, 9_999.99), 2)
    if dtype is DataType.DATE:
        day = datetime.date(1992, 1, 1) + datetime.timedelta(
            days=rng.randint(0, 2_500)
        )
        return date_to_ordinal(day)
    return "".join(rng.choice(TEXT_ALPHABET) for _ in range(rng.randint(1, 8)))


def _filter(rng, table, column):
    col = ColumnExpr(column.name, table.name)
    kind = rng.random()
    if kind < 0.5 or column.dtype not in RANGE_TYPES:
        if column.dtype in RANGE_TYPES:
            op = rng.choice(list(CompareOp))
        else:
            op = rng.choice([CompareOp.EQ, CompareOp.NE])
        return ComparisonPredicate(col, op, _literal(rng, column.dtype))
    if kind < 0.75:
        lo, hi = sorted(
            (_literal(rng, column.dtype), _literal(rng, column.dtype))
        )
        return BetweenPredicate(col, lo, hi)
    values = {_literal(rng, column.dtype) for _ in range(rng.randint(2, 4))}
    return InPredicate(col, tuple(sorted(values, key=repr)))


def _table_filters(rng, table, max_filters=3):
    columns = rng.sample(
        list(table.columns), k=rng.randint(0, min(max_filters, len(table.columns)))
    )
    return [_filter(rng, table, column) for column in columns]


def _decorate(rng, query, tables):
    """Attach random projections, ordering, grouping, and a limit."""
    table = rng.choice(tables)
    columns = list(table.columns)
    roll = rng.random()
    if roll < 0.2:
        group = ColumnExpr(rng.choice(columns).name, table.name)
        query.select = [
            SelectItem(group),
            SelectItem(Aggregate(AggFunc.COUNT, None)),
        ]
        query.group_by = [group]
    elif roll < 0.6:
        picked = rng.sample(columns, k=rng.randint(1, min(3, len(columns))))
        query.select = [
            SelectItem(ColumnExpr(c.name, table.name)) for c in picked
        ]
    # else: SELECT * (empty select list).
    if not query.group_by and rng.random() < 0.4:
        keys = rng.sample(columns, k=rng.randint(1, 2))
        query.order_by = [
            OrderItem(ColumnExpr(c.name, table.name), rng.random() < 0.5)
            for c in keys
        ]
    if rng.random() < 0.4:
        query.limit = rng.randint(1, 500)
    return query


def _random_query(rng, catalog):
    if rng.random() < 0.3:
        (lt, lc), (rt, rc) = rng.choice(JOIN_PAIRS)
        left, right = catalog.table(lt), catalog.table(rt)
        query = Query(
            tables=[lt, rt],
            filters=_table_filters(rng, left, 2) + _table_filters(rng, right, 2),
            joins=[JoinPredicate(ColumnExpr(lc, lt), ColumnExpr(rc, rt))],
        )
        return _decorate(rng, query, [left, right])
    table = rng.choice(list(catalog.tables()))
    query = Query(tables=[table.name], filters=_table_filters(rng, table))
    return _decorate(rng, query, [table])


def _normalize(query):
    """Structural signature, orientation- and order-insensitive."""
    return (
        tuple(sorted(query.tables)),
        tuple(str(i.expr) for i in query.select),
        tuple(sorted(str(f) for f in query.filters)),
        tuple(sorted(str(j.normalized()) for j in query.joins)),
        tuple(str(c) for c in query.group_by),
        tuple((str(o.column), o.descending) for o in query.order_by),
        query.limit,
    )


def _roundtrip(query, catalog):
    rendered = render_query(query, catalog)
    reparsed = bind_query(parse_query(rendered), catalog)
    assert _normalize(reparsed) == _normalize(query), rendered
    # A second pass must be a fixed point: render(bind(parse(render(q))))
    # produces the same text, so the loop cannot drift.
    assert render_query(reparsed, catalog) == rendered


class TestRoundTripFuzz:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_random_ast_survives_roundtrip(self, seed, catalog):
        rng = random.Random(seed)
        _roundtrip(_random_query(rng, catalog), catalog)

    def test_seeded_sweep(self, catalog):
        # A deterministic deep sweep independent of hypothesis' budget.
        rng = random.Random(1234)
        for _ in range(300):
            _roundtrip(_random_query(rng, catalog), catalog)

    def test_exponent_literals_survive_roundtrip(self, catalog):
        # Tiny and huge floats in every predicate shape, both signs.
        col = ColumnExpr("l_extendedprice", "lineitem_1")
        for value in (1.03e-05, 5e-324, 1e16, 7.1e307):
            for signed in (value, -value):
                lo, hi = sorted((signed, signed * 2.5))
                query = Query(
                    tables=["lineitem_1"],
                    filters=[
                        ComparisonPredicate(col, CompareOp.LT, signed),
                        BetweenPredicate(col, lo, hi),
                        InPredicate(col, (signed, 0.25)),
                    ],
                )
                assert "e" in render_query(query, catalog)
                _roundtrip(query, catalog)

    def test_exponent_literals_are_generated(self, catalog):
        rng = random.Random(11)
        texts = [render_query(_random_query(rng, catalog), catalog) for _ in range(300)]
        assert any(re.search(r"\d[eE][-+]?\d", text) for text in texts)

    def test_quoted_strings_are_generated(self, catalog):
        # TEXT columns only ever get a comparison (see _filter).
        rng = random.Random(5)
        texts = [
            f.value
            for _ in range(300)
            for f in _random_query(rng, catalog).filters
            if isinstance(f, ComparisonPredicate) and isinstance(f.value, str)
        ]
        assert any("'" in text for text in texts)
        assert any("''" in text for text in texts)

    def test_all_predicate_shapes_are_generated(self, catalog):
        rng = random.Random(7)
        shapes = set()
        for _ in range(300):
            for f in _random_query(rng, catalog).filters:
                shapes.add(type(f).__name__)
        assert shapes == {
            "ComparisonPredicate",
            "BetweenPredicate",
            "InPredicate",
        }
