"""Shared fixtures: a small two-table catalog and a physical store.

The ``small_catalog`` models a fact table (``events``, 1M statistical
rows) and a dimension (``users``, 10k rows) -- large enough that index
versus sequential scan decisions are non-trivial, small enough that
every test stays fast.  ``small_store`` carries physical data (5k/500
rows) with paper-scale statistics, mirroring how the TPC-H workload
layers statistics over sampled data.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.engine.catalog import Catalog, ColumnDef, TableDef
from repro.engine.datatypes import DataType
from repro.engine.stats import ColumnStats
from repro.engine.storage import PhysicalStore

# ``--hypothesis-profile=deep``: 20x the default example budget for every
# property test that does not fix its own (CI runs tests/sql under it, so
# each interpreter's ``re`` engine meets the front-end differential at depth).
settings.register_profile(
    "deep", max_examples=20 * settings.default.max_examples, deadline=None
)


@pytest.fixture
def small_catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_table(
        TableDef(
            "events",
            [
                ColumnDef("user_id", DataType.INT),
                ColumnDef("amount", DataType.FLOAT),
                ColumnDef("day", DataType.DATE),
                ColumnDef("kind", DataType.TEXT),
            ],
            row_count=1_000_000,
        )
    )
    catalog.add_table(
        TableDef(
            "users",
            [
                ColumnDef("user_id", DataType.INT),
                ColumnDef("score", DataType.INT),
                ColumnDef("name", DataType.TEXT, indexable=False),
            ],
            row_count=10_000,
        )
    )
    catalog.set_stats(
        "events",
        "user_id",
        ColumnStats(n_distinct=10_000, min_value=1, max_value=10_000),
    )
    catalog.set_stats(
        "events",
        "amount",
        ColumnStats(n_distinct=1_000_000, min_value=0.0, max_value=1000.0),
    )
    catalog.set_stats(
        "events",
        "day",
        ColumnStats(n_distinct=2000, min_value=8000, max_value=9999, correlation=0.9),
    )
    catalog.set_stats(
        "events",
        "kind",
        ColumnStats(n_distinct=4, min_value="click", max_value="view"),
    )
    catalog.set_stats(
        "users",
        "user_id",
        ColumnStats(n_distinct=10_000, min_value=1, max_value=10_000, correlation=1.0),
    )
    catalog.set_stats(
        "users",
        "score",
        ColumnStats(n_distinct=100, min_value=0, max_value=99),
    )
    return catalog


@pytest.fixture
def small_store() -> PhysicalStore:
    rng = random.Random(1234)
    catalog = Catalog()
    catalog.add_table(
        TableDef(
            "events",
            [
                ColumnDef("user_id", DataType.INT),
                ColumnDef("amount", DataType.FLOAT),
                ColumnDef("day", DataType.DATE),
                ColumnDef("kind", DataType.TEXT),
            ],
        )
    )
    catalog.add_table(
        TableDef(
            "users",
            [
                ColumnDef("user_id", DataType.INT),
                ColumnDef("score", DataType.INT),
            ],
        )
    )
    store = PhysicalStore(catalog)
    events = store.create_heap("events")
    kinds = ("click", "view", "buy", "scroll")
    for i in range(5000):
        events.insert(
            (
                rng.randint(1, 500),
                rng.uniform(0.0, 1000.0),
                8000 + (i // 3),
                rng.choice(kinds),
            )
        )
    users = store.create_heap("users")
    for u in range(1, 501):
        users.insert((u, rng.randint(0, 99)))
    store.analyze("events")
    store.analyze("users")
    return store
