"""What the cost model holds on to equals what it would compute afresh.

The catalog, index descriptors, per-query plan cache, per-query frame and
forecaster keep values they used to recompute on every read.  Each is a
pure function of inputs that are checked on the value (``row_count``,
the catalog generation, a live set's content, the identity of the
current configuration) or never change (a descriptor's columns), so
served values must be ``==`` -- not approximately equal -- to a fresh
evaluation of the formula, after any sequence of mutations and across
processes.  (``tests/core/test_query_frame.py`` drives the frame's three
through whole tuners.)
"""

import dataclasses
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.local import LocalBackend
from repro.core.candidates import CandidateTracker
from repro.core.clustering import Cluster, cluster_key
from repro.core.config import ColtConfig
from repro.core.forecast import MIN_FORECAST_WINDOW
from repro.core.profiler import Profiler
from repro.engine.catalog import Catalog, ColumnDef, TableDef
from repro.engine.datatypes import DataType
from repro.engine.index import IndexDef
from repro.engine.stats import ColumnStats
from repro.optimizer.access import crude_index_delta_cost
from repro.optimizer.optimizer import Optimizer, relevant_config
from repro.optimizer.whatif import WhatIfOptimizer
from repro.sql.binder import bind_query
from repro.sql.parser import parse_query
from repro.workload import build_catalog, shifting_workload
from repro.workload.experiments import phase_distributions

from tests.core.test_close_properties import suffix_forecast

TABLES = {
    "facts": [("a", DataType.INT), ("b", DataType.FLOAT), ("c", DataType.TEXT)],
    "dims": [("k", DataType.INT), ("d", DataType.DATE)],
}
INDEXES = [("facts", ("a",)), ("facts", ("b",)), ("facts", ("a", "c")), ("dims", ("k",))]
QUERIES = (
    "select a from facts where a = 5 and b < 3.5",
    "select c from facts where c = 'x'",
    "select a from facts, dims where facts.a = dims.k and dims.d < '1995-06-01'",
)


def _catalog() -> Catalog:
    catalog = Catalog()
    for name, columns in TABLES.items():
        catalog.add_table(
            TableDef(name, [ColumnDef(c, t) for c, t in columns], row_count=50_000)
        )
    return catalog


def _fresh_index(table: str, columns) -> IndexDef:
    """A descriptor built from the schema alone (never from the catalog)."""
    dtypes = dict(TABLES[table])
    return IndexDef(
        table=table,
        column=columns[0],
        dtype=dtypes[columns[0]],
        extra_columns=tuple((c, dtypes[c]) for c in columns[1:]),
    )


_tables = st.sampled_from(sorted(TABLES))
_rows = st.one_of(st.integers(0, 10**7), st.floats(0.0, 1e9))
_index = st.sampled_from(INDEXES)
_mutation = st.one_of(
    st.tuples(st.just("delta"), _tables, st.integers(-5000, 5000)),
    st.tuples(st.just("set"), _tables, _rows),
    st.tuples(st.just("assign"), _tables, _rows),
    st.tuples(st.just("stats"), _tables, st.integers(1, 10**6)),
    st.tuples(st.just("materialize"), _index, st.none()),
    st.tuples(st.just("drop"), _index, st.none()),
)


def _apply(catalog: Catalog, mutation) -> None:
    kind, target, arg = mutation
    if kind == "delta":
        before = catalog.stats_token(target)
        if before[0] + arg < 0:
            # Refused whole: neither the row count nor the version moves.
            with pytest.raises(ValueError):
                catalog.apply_row_delta(target, arg)
            assert catalog.stats_token(target) == before
        else:
            catalog.apply_row_delta(target, arg)
    elif kind == "set":
        catalog.set_row_count(target, arg)
    elif kind == "assign":
        catalog.table(target).row_count = arg  # what tests and loaders do
    elif kind == "stats":
        column = TABLES[target][0][0]
        catalog.set_stats(
            target, column, ColumnStats(n_distinct=arg, min_value=0, max_value=arg)
        )
    elif kind == "materialize":
        catalog.materialize_index(_fresh_index(*target))
    else:
        catalog.drop_index(_fresh_index(*target))


class TestCatalogServesFreshValues:
    @given(mutations=st.lists(_mutation, max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_any_interleaving(self, mutations):
        catalog = _catalog()
        frame = _Frame(catalog)
        optimizer = frame.optimizer
        params = catalog.params
        shadow = set()  # the materialized set, tracked independently
        self._check(catalog, optimizer, params, shadow)
        for mutation in mutations:
            _apply(catalog, mutation)
            if mutation[0] == "materialize":
                shadow.add(_fresh_index(*mutation[1]))
                frame.hot.discard(_fresh_index(*mutation[1]))
            elif mutation[0] == "drop":
                shadow.discard(_fresh_index(*mutation[1]))
                frame.hot.add(_fresh_index(*mutation[1]))
            # Read twice: the first read may refill a held value, the
            # second must serve it.
            self._check(catalog, optimizer, params, shadow)
            frame.check(shadow)
            self._check(catalog, optimizer, params, shadow)
            frame.check(shadow)

    @staticmethod
    def _check(catalog, optimizer, params, shadow):
        for name, columns in TABLES.items():
            table = catalog.table(name)
            width = sum(dtype.width for _, dtype in columns)
            assert table.row_width == width
            assert table.heap_pages(params) == params.heap_pages(table.row_count, width)
        for table_name, columns in INDEXES:
            index = _fresh_index(table_name, columns)
            table = catalog.table(table_name)
            rows = table.row_count
            heap = params.heap_pages(rows, table.row_width)
            assert catalog.index_size_pages(index) == index.size_pages(rows, params)
            assert catalog.index_build_cost(index) == index.materialization_cost(
                rows, heap, params
            )
            # The scan's row-count terms share the one entry per index.
            leaves = params.index_pages(rows, index.key_width)
            held = catalog.index_costing(index)
            assert held[:2] == (rows, params)
            assert held[4:] == (leaves, params.index_height(leaves), heap)
        assert optimizer.current_config() == frozenset(shadow)
        assert optimizer.current_config() == frozenset(catalog.materialized_indexes())

    def test_heap_pages_follows_params(self):
        catalog = _catalog()
        table = catalog.table("facts")
        small_pages = dataclasses.replace(catalog.params, page_size=1024)
        assert table.heap_pages(catalog.params) != table.heap_pages(small_pages)
        assert table.heap_pages(small_pages) == small_pages.heap_pages(
            table.row_count, table.row_width
        )

    def test_index_for_is_canonical(self):
        catalog = _catalog()
        assert catalog.index_for("facts", "a") is catalog.index_for("facts", "a")
        assert catalog.index_for("facts", "a") == _fresh_index("facts", ("a",))
        assert catalog.index_for("facts", "a") != catalog.index_for("facts", "b")


class _Frame:
    """What a repeated query is served from, held to a from-scratch run:
    the retained plan, its used indexes, the restriction of the current
    and of what-if configurations, the profiler's ordered ``I_M`` / ``I_H``."""

    def __init__(self, catalog):
        self.catalog = catalog
        self.backend = LocalBackend(catalog)
        self.optimizer = self.backend.optimizer
        self.queries = [bind_query(parse_query(sql), catalog) for sql in QUERIES]
        self.profiler = Profiler(
            catalog, WhatIfOptimizer(self.backend), ColtConfig()
        )
        self.hot = set()  # dropped indexes turn hot: mutated in place

    def check(self, shadow):
        config = self.optimizer.current_config()
        assert config == frozenset(shadow)
        probes = [config]
        for spec in INDEXES:
            probes += [config | {_fresh_index(*spec)}, config - {_fresh_index(*spec)}]
        for query in self.queries:
            session = self.backend.begin_query(query)  # retained from the 2nd sighting
            base, cache = session.base, session.cache
            fresh = Optimizer(self.catalog).optimize(query)
            assert (base.cost, base.config) == (fresh.cost, config)
            assert base.indexes_used == base.plan.indexes_used()
            assert base.indexes_used == fresh.plan.indexes_used()
            for probe in probes:
                assert self.optimizer.relevant(query, probe, cache) == relevant_config(
                    query, probe
                )
            cluster = Cluster(cluster_key(query, self.catalog), 0)
            assert self.profiler._pool(cluster, base.indexes_used, self.hot, shadow) == (
                [ix for ix in sorted(shadow, key=str) if ix in fresh.plan.indexes_used()],
                [ix for ix in sorted(self.hot, key=str) if cluster.is_relevant(ix)],
            )


_CHILD = """
import pickle, sys
from repro.engine.datatypes import DataType
from repro.engine.index import IndexDef

received = pickle.load(sys.stdin.buffer)
twins = [
    IndexDef("facts", "a", DataType.INT),
    IndexDef("facts", "a", DataType.INT, (("c", DataType.TEXT),)),
]
for index, twin in zip(received, twins):
    assert index == twin and twin == index
    assert hash(index) == hash(twin)
    assert {twin: "found"}[index] == "found"
    assert index in {twin} and twin in frozenset([index])
    assert (index.columns, index.name, index.key_width) == (
        twin.columns, twin.name, twin.key_width)
sys.stdout.buffer.write(pickle.dumps(twins))
"""


class TestIndexDefAcrossProcesses:
    def test_pickle_under_another_hash_seed(self):
        local = [_fresh_index("facts", ("a",)), _fresh_index("facts", ("a", "c"))]
        payload = pickle.dumps(local)
        assert b"_hash" not in payload  # no process-specific state travels
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        returned = []
        for seed in ("1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.abspath(src))
            done = subprocess.run(
                [sys.executable, "-c", _CHILD],
                input=payload,
                capture_output=True,
                env=env,
                timeout=60,
            )
            assert done.returncode == 0, done.stderr.decode()
            returned.append(pickle.loads(done.stdout))
        for twins in returned:
            for index, twin in zip(local, twins):
                assert index == twin
                assert hash(index) == hash(twin)
                assert {index: 1}[twin] == 1

    def test_hash_agrees_with_eq(self):
        a = _fresh_index("facts", ("a", "c"))
        b = pickle.loads(pickle.dumps(a))
        assert a == b and hash(a) == hash(b) and a is not b
        assert hash(a) == hash(("facts", ("a", "c")))
        assert a != _fresh_index("facts", ("a",))


def _reference_total(history, horizon, min_window):
    """The term-per-``j`` evaluation the summed forecast replaced.

    Its sums are spelled out as left folds from ``0``: what the built-in
    ``sum`` computed over floats up to CPython 3.11 (3.12's is
    compensated), and what the forecast computes on every version."""

    def fold(values):
        total = 0
        for value in values:
            total = total + value
        return total

    def predicted(j):
        if not history:
            return 0.0
        span = max(j, min_window)
        window = list(history[-span:]) if span < len(history) else list(history)
        return fold(window) / len(window)

    if not history:
        return 0.0
    return fold(predicted(j) for j in range(1, horizon + 1))


class TestForecastIsBitIdentical:
    @given(
        history=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), max_size=30
        ),
        horizon=st.integers(0, 40),
        min_window=st.integers(1, 15),
    )
    @settings(max_examples=400, deadline=None)
    def test_equals_reference(self, history, horizon, min_window):
        got = suffix_forecast(history, horizon, min_window)
        assert got == _reference_total(history, horizon, min_window)

    def test_seeded_sweep_default_window(self):
        rng = random.Random(2007)
        for _ in range(500):
            history = [rng.uniform(0.0, 50.0) for _ in range(rng.randint(0, 14))]
            horizon = rng.randint(1, 14)
            assert suffix_forecast(history, horizon) == _reference_total(
                history, horizon, MIN_FORECAST_WINDOW
            )


class TestCrudeGainsShareOneBaseline:
    def test_equals_standalone_formula(self):
        catalog = build_catalog()
        queries = shifting_workload(
            phase_distributions(), catalog, phase_length=60, transition=10, seed=5
        ).queries
        whatif = WhatIfOptimizer(LocalBackend(catalog))
        tracker = CandidateTracker(catalog, 12, 0.5, composite=True)
        credited_any = 0
        for query in queries:
            session = whatif.begin_query(query)
            credited = tracker.observe_query(query, [], [], session.cache)
            assert credited == tracker.observe_query(query, [], [])  # no session
            for index, gain in credited:
                standalone = crude_index_delta_cost(
                    catalog, index, query.filters_on(index.table)
                )
                assert gain == standalone
                credited_any += gain > 0.0
        assert credited_any > 50
