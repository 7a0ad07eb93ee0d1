"""Tests for the bandit's per-arm context vectors."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bandit.features import FEATURE_DIM, FEATURE_NAMES, FeatureMap
from repro.core.candidates import CandidateTracker

from tests.fleet.workloads import build_small_catalog


def test_materialized_membership_is_read_from_any_collection(small_catalog):
    features = FeatureMap(small_catalog, storage_budget_pages=5000.0)
    tracker = CandidateTracker(small_catalog, 4, 0.5)
    day = small_catalog.index_for("events", "day")
    user = small_catalog.index_for("events", "user_id")
    flag = FEATURE_NAMES.index("is_materialized")
    for holder in (set, frozenset, list, tuple):
        inside = features.vector(day, tracker, holder([user, day]))
        outside = features.vector(day, tracker, holder([user]))
        assert len(inside) == FEATURE_DIM
        assert (inside[flag], outside[flag]) == (1.0, 0.0)
        assert inside[:flag] + inside[flag + 1:] == outside[:flag] + outside[flag + 1:]


# ----------------------------------------------------------------------
# held terms: a served vector always equals a from-scratch evaluation
_TABLES = ("events", "users")
_COLUMNS = {"events": ("user_id", "amount", "day", "kind"), "users": ("user_id", "score")}
_tables = st.sampled_from(_TABLES)


def _row_delta(catalog, live, arms, table, n):
    before = catalog.stats_token(table)
    if before[0] + n < 0:
        # Refused whole: neither the row count nor the version moves.
        with pytest.raises(ValueError):
            catalog.apply_row_delta(table, n)
        assert catalog.stats_token(table) == before
    else:
        catalog.apply_row_delta(table, n)


def _assign_row_count(catalog, live, arms, table, n):
    catalog.table(table).row_count = max(0.0, catalog.table(table).row_count + n)


def _set_stats(catalog, live, arms, table, n):
    column = _COLUMNS[table][n % len(_COLUMNS[table])]
    stats = catalog.stats(table, column)
    catalog.set_stats(
        table, column, dataclasses.replace(stats, n_distinct=stats.n_distinct * 3 + 1)
    )


def _materialize(catalog, live, arms, table, n):
    catalog.materialize_index(arms[n % len(arms)])


def _replace_params(catalog, live, arms, table, n):
    params = catalog.params
    catalog.params = dataclasses.replace(params, page_size=params.page_size * 2)


def _traffic(catalog, live, arms, table, n):
    live.note_query([table])
    live.note_insert(table, abs(n))


def _roll_epoch(catalog, live, arms, table, n):
    live.roll_epoch(10)


def _restore(catalog, live, arms, table, n):
    live.restore({"read_rate": {table: abs(n) / 7.0}, "write_rate": {table: 0.5}})


_MUTATIONS = (
    _row_delta,
    _assign_row_count,
    _set_stats,
    _materialize,
    _replace_params,
    _traffic,
    _roll_epoch,
    _restore,
)


@given(
    steps=st.lists(
        st.tuples(st.sampled_from(_MUTATIONS), _tables, st.integers(-5000, 5000)),
        min_size=1,
        max_size=25,
    )
)
@settings(max_examples=120, deadline=None)
def test_held_terms_equal_a_fresh_feature_map(steps):
    """After any interleaving of row-count changes, ANALYZE, index
    materialization, parameter swaps, rate rolls and restores, every
    arm's vector ``==`` the one a feature map built that instant (same
    EWMA rates, nothing held) computes."""
    catalog = build_small_catalog()
    live = FeatureMap(catalog, storage_budget_pages=5000.0)
    tracker = CandidateTracker(catalog, 4, 0.5)
    arms = [
        catalog.index_for(table, column)
        for table in _TABLES
        for column in _COLUMNS[table]
    ]
    arms.append(catalog.composite_index_for("events", ["day", "user_id"]))
    for arm in arms:  # hold every arm's terms before anything moves
        live.vector(arm, tracker, ())
    for mutate, table, n in steps:
        mutate(catalog, live, arms, table, n)
        fresh = FeatureMap(catalog, storage_budget_pages=5000.0)
        fresh.restore(live.to_snapshot())
        materialized = catalog.materialized_indexes()
        for arm in arms:
            assert live.vector(arm, tracker, materialized) == fresh.vector(
                arm, tracker, materialized
            ), (mutate.__name__, arm.name)
