"""Unit tests for the SQL parser."""

import sys

import pytest

from repro.sql.ast import (
    AggFunc,
    Aggregate,
    BetweenPredicate,
    ColumnExpr,
    CompareOp,
    ComparisonPredicate,
    InPredicate,
)
from repro.sql.parser import ParseError, parse_query


class TestSelectList:
    def test_star(self):
        q = parse_query("select * from t")
        assert q.select == []
        assert q.tables == ["t"]

    def test_columns(self):
        q = parse_query("select a, t.b from t")
        assert q.select[0].expr == ColumnExpr("a")
        assert q.select[1].expr == ColumnExpr("b", "t")

    def test_alias(self):
        q = parse_query("select a as x from t")
        assert q.select[0].alias == "x"

    def test_count_star(self):
        q = parse_query("select count(*) from t")
        agg = q.select[0].expr
        assert isinstance(agg, Aggregate)
        assert agg.func is AggFunc.COUNT
        assert agg.arg is None

    def test_aggregates(self):
        q = parse_query("select sum(a), avg(b), min(a), max(a), count(a) from t")
        funcs = [item.expr.func for item in q.select]
        assert funcs == [AggFunc.SUM, AggFunc.AVG, AggFunc.MIN, AggFunc.MAX, AggFunc.COUNT]

    def test_sum_star_rejected(self):
        with pytest.raises(ParseError):
            parse_query("select sum(*) from t")


class TestWhere:
    def test_comparison(self):
        q = parse_query("select * from t where a >= 10")
        pred = q.filters[0]
        assert isinstance(pred, ComparisonPredicate)
        assert pred.op is CompareOp.GE
        assert pred.value == 10

    def test_literal_on_left_flipped(self):
        q = parse_query("select * from t where 10 < a")
        pred = q.filters[0]
        assert pred.op is CompareOp.GT
        assert pred.column == ColumnExpr("a")

    def test_between(self):
        q = parse_query("select * from t where a between 1 and 5")
        pred = q.filters[0]
        assert isinstance(pred, BetweenPredicate)
        assert (pred.low, pred.high) == (1, 5)

    def test_in_list(self):
        q = parse_query("select * from t where a in (1, 2, 3)")
        pred = q.filters[0]
        assert isinstance(pred, InPredicate)
        assert pred.values == (1, 2, 3)

    def test_string_literal(self):
        q = parse_query("select * from t where name = 'bob'")
        assert q.filters[0].value == "bob"

    def test_float_literal(self):
        q = parse_query("select * from t where a < 1.5")
        assert q.filters[0].value == 1.5

    def test_conjunction(self):
        q = parse_query("select * from t where a = 1 and b = 2 and c = 3")
        assert len(q.filters) == 3

    def test_not_equal_variants(self):
        for text in ("<>", "!="):
            q = parse_query(f"select * from t where a {text} 5")
            assert q.filters[0].op is CompareOp.NE


class TestJoins:
    def test_equi_join(self):
        q = parse_query("select * from t, s where t.a = s.a")
        assert len(q.joins) == 1
        assert q.joins[0].left == ColumnExpr("a", "t")
        assert q.joins[0].right == ColumnExpr("a", "s")

    def test_join_plus_filter(self):
        q = parse_query("select * from t, s where t.a = s.a and t.b > 5")
        assert len(q.joins) == 1
        assert len(q.filters) == 1

    def test_non_equi_join_rejected(self):
        with pytest.raises(ParseError):
            parse_query("select * from t, s where t.a < s.a")

    def test_self_join_rejected(self):
        with pytest.raises(ParseError):
            parse_query("select * from t, t")


class TestTrailingClauses:
    def test_group_by(self):
        q = parse_query("select a, count(*) from t group by a")
        assert q.group_by == [ColumnExpr("a")]

    def test_order_by_directions(self):
        q = parse_query("select a, b from t order by a desc, b asc")
        assert q.order_by[0].descending
        assert not q.order_by[1].descending

    def test_order_by_default_asc(self):
        q = parse_query("select a from t order by a")
        assert not q.order_by[0].descending

    def test_limit(self):
        q = parse_query("select a from t limit 10")
        assert q.limit == 10

    def test_limit_rejects_non_integer(self):
        for text in ("1e3", "1.5"):
            with pytest.raises(ParseError):
                parse_query(f"select a from t limit {text}")

    def test_limit_rejects_negative(self):
        sql = "select l_orderkey from lineitem_1 limit -5"
        with pytest.raises(ParseError, match=f"'-5' at offset {sql.index('-5')}$"):
            parse_query(sql)
        assert parse_query("select a from t limit 0").limit == 0
        assert parse_query("select a from t limit -0").limit == 0

    def test_integer_literal_longer_than_int_converts(self):
        # Python >= 3.11 caps int() at 4 300 digits: its ValueError used
        # to leave parse_query as it was.
        sql = "select a from t where b = " + "7" * 5000
        if sys.version_info >= (3, 11):
            with pytest.raises(ParseError, match=f"too long at offset {sql.index('7')}$"):
                parse_query(sql)
        else:
            assert parse_query(sql).filters[0].value == int("7" * 5000)

    def test_exponent_literals(self):
        q = parse_query("select a from t where b < 1.03e-05 and c = 1E+22")
        assert [f.value for f in q.filters] == [1.03e-05, 1e22]
        assert all(isinstance(f.value, float) for f in q.filters)

    def test_everything_together(self):
        q = parse_query(
            "select t.a, count(*) from t, s "
            "where t.a = s.a and t.b between 1 and 2 "
            "group by t.a order by t.a limit 3"
        )
        assert q.limit == 3
        assert q.group_by and q.order_by and q.joins and q.filters

    def test_text_preserved(self):
        sql = "select a from t"
        assert parse_query(sql).text == sql


class TestErrors:
    @pytest.mark.parametrize(
        "sql",
        [
            "select",
            "select from t",
            "select a from",
            "select a from t where",
            "select a from t where a",
            "select a from t where a =",
            "select a from t limit x",
            "select a from t extra",
            "select a from t where a in ()",
        ],
    )
    def test_malformed(self, sql):
        with pytest.raises(ParseError):
            parse_query(sql)


class TestQueryHelpers:
    def test_filters_on(self):
        q = parse_query("select * from t, s where t.a > 1 and s.b > 2 and t.a = s.a")
        # Unbound columns carry explicit tables here.
        assert len(q.filters_on("t")) == 1
        assert len(q.filters_on("s")) == 1

    def test_selection_and_join_columns(self):
        q = parse_query("select * from t, s where t.a > 1 and t.b = s.b")
        assert [str(c) for c in q.selection_columns()] == ["t.a"]
        assert len(q.join_columns()) == 2

    def test_is_aggregate(self):
        assert parse_query("select count(*) from t").is_aggregate()
        assert not parse_query("select a from t").is_aggregate()
