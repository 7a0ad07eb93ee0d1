"""Round-trip tests pinning the renderer and parser against each other."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.ast import ColumnExpr, CompareOp, ComparisonPredicate
from repro.sql.binder import bind_query
from repro.sql.parser import parse_query
from repro.sql.render import render_query
from repro.workload.datagen import build_catalog
from repro.workload.experiments import phase_distributions, stable_distribution


class TestRendering:
    def test_simple_query(self):
        q = parse_query("select a, b from t where a = 5 order by b desc limit 3")
        text = render_query(q)
        assert text == "select a, b from t where a = 5 order by b desc limit 3"

    def test_star(self):
        assert render_query(parse_query("select * from t")) == "select * from t"

    def test_aggregates_and_grouping(self):
        sql = "select kind, count(*) from t group by kind"
        q = parse_query(sql)
        assert render_query(q) == sql

    def test_joins(self):
        sql = "select * from t, s where t.a = s.a and t.b > 5"
        rendered = render_query(parse_query(sql))
        assert "t.a = s.a" in rendered
        assert "t.b > 5" in rendered

    def test_in_and_between(self):
        sql = "select a from t where a in (1, 2) and b between 3 and 4"
        rendered = render_query(parse_query(sql))
        assert "in (1, 2)" in rendered
        assert "between 3 and 4" in rendered

    def test_string_literals_quoted(self):
        rendered = render_query(parse_query("select a from t where b = 'x y'"))
        assert "'x y'" in rendered

    def test_quote_in_a_string_is_doubled(self):
        query = parse_query("select a from t where b = 'x'")
        for value in ("O'Brien", "'", "''", "x' and l_orderkey = '1", "it''s"):
            query.filters[0] = ComparisonPredicate(ColumnExpr("b"), CompareOp.EQ, value)
            rendered = render_query(query)
            assert rendered.count("'") == 2 + 2 * value.count("'")
            # One predicate in, one predicate out, carrying the same text.
            assert parse_query(rendered).filters == query.filters

    def test_alias(self):
        rendered = render_query(parse_query("select a as z from t"))
        assert "a as z" in rendered

    def test_dates_pretty_with_catalog(self):
        catalog = build_catalog(instances=1)
        q = bind_query(
            parse_query(
                "select l_orderkey from lineitem_1 "
                "where l_shipdate between '1994-01-01' and '1994-02-01'"
            ),
            catalog,
        )
        rendered = render_query(q, catalog)
        assert "'1994-01-01'" in rendered
        assert "'1994-02-01'" in rendered


class TestRoundTrip:
    def _normalize(self, query):
        """Structural signature ignoring the original text."""
        return (
            tuple(query.tables),
            tuple(str(i.expr) for i in query.select),
            tuple(sorted(str(f) for f in query.filters)),
            tuple(sorted(str(j) for j in query.joins)),
            tuple(str(c) for c in query.group_by),
            tuple((str(o.column), o.descending) for o in query.order_by),
            query.limit,
        )

    @pytest.mark.parametrize(
        "sql",
        [
            "select * from t",
            "select a from t where a = 5",
            "select a, b from t where a between 1 and 2 and b <> 'x'",
            "select count(*) from t where a in (1, 2, 3)",
            "select a, sum(b) from t group by a order by a limit 10",
            "select * from t, s where t.a = s.a and 5 < t.b",
        ],
    )
    def test_fixed_cases(self, sql):
        once = parse_query(sql)
        twice = parse_query(render_query(once))
        assert self._normalize(once) == self._normalize(twice)

    def test_workload_queries_roundtrip(self):
        """Every generated workload query survives render → parse → bind."""
        catalog = build_catalog()
        rng = random.Random(0)
        for dist in [stable_distribution(), *phase_distributions()]:
            for _ in range(25):
                query = dist.sample(catalog, rng)
                rendered = render_query(query, catalog)
                reparsed = bind_query(parse_query(rendered), catalog)
                assert self._normalize(query) == self._normalize(reparsed)

    @given(
        value=st.integers(-10_000, 10_000),
        low=st.integers(-100, 100),
        width=st.integers(0, 100),
        limit=st.integers(1, 50),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, value, low, width, limit):
        sql = (
            f"select a from t where a = {value} "
            f"and b between {low} and {low + width} limit {limit}"
        )
        once = parse_query(sql)
        twice = parse_query(render_query(once))
        assert self._normalize(once) == self._normalize(twice)
