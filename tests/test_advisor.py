"""Tests for the one-shot index advisor."""

import pytest

from repro.advisor import advise
from repro.sql.binder import BindError, bind_query
from repro.sql.parser import ParseError, parse_query


class TestAdvise:
    def test_recommends_obvious_index(self, small_catalog):
        report = advise(
            small_catalog,
            ["select amount from events where user_id = 5"] * 3,
            budget_pages=50_000.0,
        )
        names = [r.index.name for r in report.recommendations]
        assert "ix_events_user_id" in names
        assert report.workload_cost_after < report.workload_cost_before
        assert report.improvement_percent > 50.0

    def test_empty_recommendation_when_nothing_helps(self, small_catalog):
        report = advise(
            small_catalog,
            ["select amount from events where amount between 0 and 900"],
            budget_pages=50_000.0,
        )
        assert report.recommendations == []
        assert "no indexes recommended" in report.to_text()

    def test_budget_zero(self, small_catalog):
        report = advise(
            small_catalog,
            ["select amount from events where user_id = 5"],
            budget_pages=0.0,
        )
        assert report.recommendations == []
        assert report.improvement_percent == 0.0

    def test_negative_budget_rejected(self, small_catalog):
        with pytest.raises(ValueError, match="budget must be non-negative"):
            advise(
                small_catalog,
                ["select amount from events where user_id = 5"],
                budget_pages=-3.0,
            )

    def test_accepts_bound_queries(self, small_catalog):
        q = bind_query(
            parse_query("select amount from events where user_id = 5"),
            small_catalog,
        )
        report = advise(small_catalog, [q, q], budget_pages=50_000.0)
        assert report.recommendations

    def test_marginal_gains_positive_and_sorted(self, small_catalog):
        report = advise(
            small_catalog,
            [
                "select amount from events where user_id = 5",
                "select amount from events where day between 8000 and 8010",
                "select score from users where user_id = 3",
            ],
            budget_pages=50_000.0,
        )
        gains = [r.marginal_gain for r in report.recommendations]
        assert gains == sorted(gains, reverse=True)
        assert all(g > 0 for g in gains)
        assert all(r.queries_helped >= 1 for r in report.recommendations)

    def test_report_renders(self, small_catalog):
        report = advise(
            small_catalog,
            ["select amount from events where user_id = 5"],
            budget_pages=50_000.0,
        )
        text = report.to_text()
        assert "ix_events_user_id" in text
        assert "%" in text

    def test_bad_sql_raises(self, small_catalog):
        with pytest.raises(ParseError):
            advise(small_catalog, ["selectt nope"], budget_pages=100.0)
        with pytest.raises(BindError):
            advise(
                small_catalog,
                ["select zzz from events"],
                budget_pages=100.0,
            )

    def test_greedy_strategy(self, small_catalog):
        report = advise(
            small_catalog,
            ["select amount from events where user_id = 5"],
            budget_pages=50_000.0,
            strategy="greedy",
        )
        assert report.recommendations


class TestAdviseCli:
    def test_cli_advise(self, capsys):
        from repro.cli import main

        sql = (
            "select l_orderkey from lineitem_1 "
            "where l_shipdate between '1994-01-01' and '1994-02-01'"
        )
        assert main(["advise", sql]) == 0
        out = capsys.readouterr().out
        assert "ix_lineitem_1_l_shipdate" in out

    def test_cli_advise_bad_sql(self, capsys):
        from repro.cli import main

        assert main(["advise", "selectt nope"]) == 2  # EXIT_PARSE
        assert "error:" in capsys.readouterr().err
