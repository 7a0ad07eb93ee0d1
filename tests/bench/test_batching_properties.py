"""Property tests for the retained plan cache (hypothesis).

``LocalBackend.begin_query`` keeps a live ``Query`` object's plan cache
for as long as the statistics of its tables hold.  That is only
admissible because it is **decision preserving**: for *any* stream with
repeated objects and *any* interleaving of catalog mutations, a session
opened on a retained cache -- its base result, every what-if gain
measured through it, the crude ``(index, gain)`` pairs and the cluster
key read from it -- must equal the session the base class opens on an
empty cache.  These properties let hypothesis hunt for a mutation
schedule that breaks that, instead of trusting a few hand-picked cases.
``TestEndToEndDifferential`` holds the whole tuner to it: a stream that
cycles its objects against the same stream as deep copies.

(The parity class keeps the name it had when these properties guarded
the batched pricer, which this path replaced.)
"""

import copy
import dataclasses
import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.base import Backend
from repro.backend.local import LocalBackend
from repro.core.candidates import CandidateTracker
from repro.core.colt import ColtTuner
from repro.core.clustering import cluster_key
from repro.core.config import ColtConfig
from repro.engine.catalog import Catalog, TableDef
from repro.engines import ENGINES
from repro.fleet import FleetCoordinator
from repro.optimizer.access import table_scan
from repro.optimizer.optimizer import PlanCache
from repro.optimizer.plan import IndexScanNode
from repro.optimizer.whatif import WhatIfOptimizer
from repro.sql.binder import bind_query
from repro.sql.parser import parse_query
from repro.workload.datagen import build_catalog
from repro.workload.experiments import stable_distribution
from tests.fleet.workloads import build_small_catalog, day_query, eq_query, score_query
from tests.optimizer import oracle

DIST = stable_distribution()


def sample_queries(seed, n):
    catalog = build_catalog()
    rng = random.Random(seed)
    return catalog, [DIST.sample(catalog, rng) for _ in range(n)]


@st.composite
def stream_with_repeats(draw):
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(1, 24))
    # Repeat some queries (long streams cycle), preserving identity.
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=16))
    return seed, n, repeats


# Every way the inputs of ``Optimizer.optimize`` can move.  Each takes
# (catalog, backend, index) with ``index`` one of the distribution's
# relevant indexes.
def _materialize(catalog, backend, index):
    catalog.materialize_index(index)


def _drop(catalog, backend, index):
    catalog.drop_index(index)


def _row_delta(catalog, backend, index):
    catalog.apply_row_delta(index.table, 50_000)


def _set_row_count(catalog, backend, index):
    catalog.set_row_count(index.table, catalog.table(index.table).row_count * 3)


def _assign_row_count(catalog, backend, index):
    catalog.table(index.table).row_count *= 0.5


def _set_stats(catalog, backend, index):
    # Moves equality and range selectivities both (the distribution's
    # columns are numeric).
    stats = catalog.stats(index.table, index.column)
    catalog.set_stats(
        index.table,
        index.column,
        dataclasses.replace(
            stats,
            n_distinct=stats.n_distinct * 7 + 1,
            max_value=stats.max_value + (stats.max_value - stats.min_value),
            histogram=None,
        ),
    )


def _bump_version(catalog, backend, index):
    catalog.bump_stats_version(index.table)


def _replace_params(catalog, backend, index):
    params = catalog.params
    catalog.params = dataclasses.replace(
        params, random_page_cost=params.random_page_cost * 1.5
    )


MUTATIONS = [
    _materialize,
    _drop,
    _row_delta,
    _set_row_count,
    _assign_row_count,
    _set_stats,
    _bump_version,
    _replace_params,
]


ROW_MOVES = [_row_delta, _set_row_count, _assign_row_count]

#: A filtered column the fallback catalog leaves without statistics, and
#: a range query over it.
FALLBACK = ("lineitem_2", "l_shipdate")
FALLBACK_SQL = (
    "select l_orderkey from lineitem_2 "
    "where l_shipdate between '1995-12-06' and '1995-12-24'"
)


def _fallback_catalog():
    """``build_catalog()`` with :data:`FALLBACK` on ``default_stats_for``."""
    full = build_catalog()
    catalog = Catalog(full.params)
    for table in full.tables():
        catalog.add_table(TableDef(table.name, table.columns, table.row_count))
        for column in table.columns:
            if (table.name, column.name) != FALLBACK:
                catalog.set_stats(
                    table.name, column.name, full.stats(table.name, column.name)
                )
    return catalog


def _crude_pairs(catalog, session, composite):
    tracker = CandidateTracker(catalog, 4, 0.5, composite=composite)
    used = session.base.plan.indexes_used()
    return tracker.observe_query(
        session.query, used, catalog.materialized_indexes(), session.cache
    )


def assert_session_equals_reference(catalog, backend, session, probes):
    """``session`` (possibly on a retained cache) == the base class's."""
    query = session.query
    want = Backend.begin_query(backend, query)
    assert session.query is query
    assert session.base.cost == want.base.cost
    assert session.base.config == want.base.config
    assert session.base.plan == want.base.plan
    whatif = WhatIfOptimizer(backend)
    assert whatif.what_if_optimize(session, probes) == (
        whatif.what_if_optimize(want, probes)
    )
    for composite in (False, True):
        assert _crude_pairs(catalog, session, composite) == (
            _crude_pairs(catalog, want, composite)
        )
    assert cluster_key(query, catalog, session.cache) == cluster_key(query, catalog)


class TestBatchedPricerParity:
    @given(
        stream_with_repeats(),
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, len(MUTATIONS) - 1)),
            max_size=8,
        ),
    )
    @settings(deadline=None)
    def test_sessions_identical_under_any_split_and_mutations(
        self, drawn, mutations
    ):
        seed, n, repeats = drawn
        catalog, queries = sample_queries(seed, n)
        # Every object at least twice, so caches are admitted, then the
        # drawn repeats on top.
        stream = queries + queries + [queries[i] for i in repeats]
        relevant = DIST.relevant_indexes(catalog)
        backend = LocalBackend(catalog)

        schedule = {}
        for position, op in mutations:
            schedule.setdefault(position % len(stream), []).append(op)
        for position, query in enumerate(stream):
            # Mutations land anywhere in the stream: the retained cache
            # must revalidate, not serve what it learned before them.
            for k, op in enumerate(schedule.get(position, ())):
                index = relevant[(position + k) % len(relevant)]
                MUTATIONS[op](catalog, backend, index)
            session = backend.begin_query(query)
            probes = [
                relevant[position % len(relevant)],
                relevant[(position + 3) % len(relevant)],
            ]
            assert_session_equals_reference(catalog, backend, session, probes)

    @given(
        st.integers(0, 10_000),
        st.lists(st.sampled_from(ROW_MOVES), min_size=1, max_size=4),
    )
    @settings(deadline=None)
    def test_a_column_on_fallback_statistics_is_not_carried_across_row_moves(
        self, seed, moves
    ):
        # Fallback statistics derive from the row count, so a row move
        # changes the selectivities of filters on the column: the cache's
        # structural half must not survive it.
        catalog = _fallback_catalog()
        rng = random.Random(seed)
        queries = [DIST.sample(catalog, rng) for _ in range(6)]
        queries.append(bind_query(parse_query(FALLBACK_SQL), catalog))
        backend = LocalBackend(catalog)
        index = catalog.index_for(*FALLBACK)
        for move in [None, *moves]:
            if move is not None:
                move(catalog, backend, index)
            for query in queries + queries:
                session = backend.begin_query(query)
                assert_session_equals_reference(catalog, backend, session, [index])

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_repeat_objects_hit_the_memo(self, seed):
        catalog, queries = sample_queries(seed, 4)
        backend = LocalBackend(catalog)
        for _ in range(2):
            for query in queries:
                backend.begin_query(query)
        planned = backend.optimizer.optimize_count
        sessions = [backend.begin_query(q) for q in queries]  # third sighting
        # Same objects, same statistics: every base is a plans hit ...
        assert backend.optimizer.optimize_count == planned
        assert all(s.cache.hits >= 1 for s in sessions)
        # ... while the reference path plans each one again.
        for query in queries:
            Backend.begin_query(backend, query)
        assert backend.optimizer.optimize_count == planned + len(queries)


def _cycling_and_fresh_streams():
    """300 arrivals cycling over 30 query objects, and the same stream as
    300 distinct deep copies."""
    makers = [eq_query, day_query, score_query]
    base = [makers[i % 3](8000 + i if i % 3 == 1 else i + 1) for i in range(30)]
    cycling = [base[i % len(base)] for i in range(300)]
    fresh = [copy.deepcopy(q) for q in cycling]
    assert len({id(q) for q in fresh}) == 300
    return cycling, fresh


def _ledger_row(o):
    """Every decision-relevant field of one ``QueryOutcome``."""
    return (
        o.execution_cost,
        o.whatif_calls,
        o.whatif_overhead,
        o.build_cost,
        o.total_cost,
        o.epoch_ended,
        o.failed,
        o.plan,
        o.reorganization
        and (
            sorted(map(str, o.reorganization.materialize)),
            sorted(map(str, o.reorganization.drop)),
            o.reorganization.whatif_budget,
        ),
    )


def _differential_config():
    return ColtConfig(storage_budget_pages=6000.0, min_history_epochs=2)


class TestEndToEndDifferential:
    # A cycling stream hands the backend the same objects again, so
    # sessions open on retained plan caches; the same stream as
    # never-repeating deep copies opens every session from scratch.
    # No knob selects between the two, so this is the differential:
    # the ledgers must be identical, row by row.

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_repeating_stream_matches_fresh_copies_exactly(self, engine):
        cycling, fresh = _cycling_and_fresh_streams()

        def ledger(stream):
            tuner = ENGINES[engine].build(build_small_catalog(), _differential_config())
            return [_ledger_row(tuner.process_query(q)) for q in stream]

        rows = ledger(cycling)
        assert rows == ledger(fresh)
        assert sum(row[1] for row in rows) > 0  # what-if calls
        assert not any(row[6] for row in rows)  # failed

    @pytest.mark.parametrize("policy", ["round-robin", "affinity", "client"])
    def test_fleet_repeating_stream_matches_fresh_copies_exactly(self, policy):
        # The same differential through a two-replica fleet: each
        # replica's backend sees a repeat only of what was routed to it,
        # and fleet reorganizations close epochs between the repeats.
        cycling, fresh = _cycling_and_fresh_streams()
        client_ids = [i % 4 for i in range(len(cycling))]

        def ledger(stream):
            fleet = FleetCoordinator(
                build_small_catalog,
                n_replicas=2,
                config=_differential_config(),
                policy=policy,
                fleet_epoch_length=20,
            )
            run = fleet.run(stream, client_ids=client_ids)
            rows = [(f.replica_id, _ledger_row(f.outcome)) for f in run.outcomes]
            configs = [sorted(r.materialized_names) for r in fleet.replicas]
            planned = sum(r.tuner.backend.optimizer.optimize_count for r in fleet.replicas)
            return (rows, len(run.reorganizations), configs), planned

        (rows, reorganizations, configs), planned = ledger(cycling)
        fresh_ledger, fresh_planned = ledger(fresh)
        assert (rows, reorganizations, configs) == fresh_ledger
        assert planned < fresh_planned  # the repeats did reuse retained plans
        assert {replica for replica, _ in rows} == {0, 1}
        assert reorganizations == 15
        assert sum(row[1] for _, row in rows) > 0  # what-if calls
        assert not any(row[6] for _, row in rows)  # failed


def _fresh_index_cost(catalog, table, filters, index):
    """``index``'s scan cost on a fresh ``TableScan``, checked against the
    formula evaluated from nothing held; None where it is inapplicable."""
    cost = table_scan(catalog, table, filters).index_cost(catalog, index)
    paths = oracle.index_paths(catalog, table, filters, frozenset((index,)))
    assert cost == (paths[0].cost if paths else None)
    return cost


class TestOneIndexCostServedEverywhere:
    @given(
        stream_with_repeats(),
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, len(MUTATIONS) - 1)),
            max_size=8,
        ),
    )
    @settings(deadline=None)
    def test_every_served_index_cost_is_a_fresh_one(self, drawn, mutations):
        # Row moves (direct assignment included), params swaps, statistics
        # bumps and materialize / drop, anywhere in a stream of repeated
        # objects: every index cost a retained TableScan hands out -- to
        # the base path, to each probe's path and to the crude pass -- is
        # the one a fresh scan prices, bit for bit.
        seed, n, repeats = drawn
        catalog, queries = sample_queries(seed, n)
        stream = queries + queries + [queries[i] for i in repeats]
        relevant = DIST.relevant_indexes(catalog)
        backend = LocalBackend(catalog)
        whatif = WhatIfOptimizer(backend)
        schedule = {}
        for position, op in mutations:
            schedule.setdefault(position % len(stream), []).append(op)
        for position, query in enumerate(stream):
            for k, op in enumerate(schedule.get(position, ())):
                index = relevant[(position + k) % len(relevant)]
                MUTATIONS[op](catalog, backend, index)
            session = backend.begin_query(query)
            probes = [
                relevant[position % len(relevant)],
                relevant[(position + 3) % len(relevant)],
            ]
            whatif.what_if_optimize(session, probes)
            for composite in (False, True):
                _crude_pairs(catalog, session, composite)
            cache = session.cache
            for table, scan in cache.scans.items():
                for index, cost in scan.costs.items():
                    assert cost == _fresh_index_cost(catalog, table, scan.filters, index)
            for result in cache.plans.values():
                stack = [result.plan]
                while stack:
                    node = stack.pop()
                    stack.extend(node.children())
                    if type(node) is IndexScanNode and node.parameterized_by is None:
                        filters = cache.scans[node.table].filters
                        assert node.cost == _fresh_index_cost(
                            catalog, node.table, filters, node.index
                        )
            for pairs in cache.crude:
                for index, crude in pairs or ():
                    filters = cache.scans[index.table].filters
                    cost = _fresh_index_cost(catalog, index.table, filters, index)
                    seq = table_scan(catalog, index.table, filters).seq.cost
                    assert crude == (0.0 if cost is None else max(0.0, seq - cost))


class TestAdmission:
    def test_cache_is_retained_from_the_second_sighting(self):
        catalog, (query,) = sample_queries(7, 1)
        backend = LocalBackend(catalog)
        first = backend.begin_query(query)
        entry = backend._live[id(query)]
        assert entry() is query
        assert entry.cache is None  # first sighting: the token only
        second = backend.begin_query(query)
        assert entry.cache is second.cache
        assert second.cache is not first.cache
        third = backend.begin_query(query)
        assert third.cache is second.cache
        assert third.base.cost == first.base.cost

    @pytest.mark.parametrize("move", ROW_MOVES)
    def test_a_row_move_reprices(self, move):
        catalog, (query,) = sample_queries(7, 1)
        backend = LocalBackend(catalog)
        for _ in range(3):
            held = backend.begin_query(query).cache
        tracker = CandidateTracker(catalog, 4, 0.5)
        tracker.observe_query(query, (), (), held)
        (table,) = held.scans
        scan = held.scans[table]
        structural = (
            held.referenced, held.mined, held.cluster_key, scan.sel_of, scan.sargs
        )
        seq = scan.seq
        move(catalog, backend, catalog.index_for(table, query.filters[0].column.column))
        session = backend.begin_query(query)
        assert session.cache is held is backend._live[id(query)].cache
        # The structural half is carried, the priced half was rebuilt: the
        # one plan in it is the one just priced under the new row count.
        assert held.scans[table] is scan
        assert (
            held.referenced, held.mined, held.cluster_key, scan.sel_of, scan.sargs
        ) == structural
        assert held.mined[False] is structural[1][False]
        assert scan.seq is not seq and scan.seq.cost != seq.cost
        assert held.crude is None
        assert list(held.plans.values()) == [session.base]
        assert_session_equals_reference(catalog, backend, session, [])

    @pytest.mark.parametrize("insert", [{"count": 0}, {"rows": []}])
    def test_a_zero_row_insert_keeps_the_plan(self, insert):
        # Nothing a price reads has moved: the token holds, so the next
        # sighting is a plans hit on the retained cache.
        catalog, (query,) = sample_queries(7, 1)
        tuner = ColtTuner(catalog)
        backend = tuner.backend
        for _ in range(3):
            held = backend.begin_query(query).cache
        token = catalog.stats_token(query.tables[0])
        planned, hits = backend.optimizer.optimize_count, held.hits
        tuner.process_insert(query.tables[0], **insert)
        assert catalog.stats_token(query.tables[0]) == token
        session = backend.begin_query(query)
        assert session.cache is held
        assert held.hits == hits + 1
        assert backend.optimizer.optimize_count == planned

    def test_a_row_move_between_the_first_two_sightings_retains(self):
        catalog, (query,) = sample_queries(7, 1)
        backend = LocalBackend(catalog)
        backend.begin_query(query)
        catalog.apply_row_delta(query.tables[0], 10)
        session = backend.begin_query(query)
        assert backend._live[id(query)].cache is session.cache is not None

    @pytest.mark.parametrize(
        "change", [_set_stats, _bump_version, _replace_params]
    )
    def test_a_statistics_bump_starts_over(self, change):
        catalog, (query,) = sample_queries(7, 1)
        backend = LocalBackend(catalog)
        for _ in range(3):
            held = backend.begin_query(query).cache
        column = query.filters[0].column
        index = catalog.index_for(column.table, column.column)
        change(catalog, backend, index)
        entry = backend._live[id(query)]
        after = backend.begin_query(query)
        assert after.cache is not held
        assert entry.cache is None  # first sighting under the new statistics
        assert backend.begin_query(query).cache is entry.cache is not None
        assert_session_equals_reference(catalog, backend, after, [index])

    def test_materialization_changes_keep_the_cache(self):
        catalog, (query,) = sample_queries(7, 1)
        backend = LocalBackend(catalog)
        for _ in range(2):
            held = backend.begin_query(query).cache
        index = catalog.index_for(
            query.filters[0].column.table, query.filters[0].column.column
        )
        catalog.materialize_index(index)
        session = backend.begin_query(query)
        assert session.cache is held  # keyed inside by relevant config
        assert session.base.config == backend.current_config()
        assert session.base.cost == Backend.begin_query(backend, query).base.cost

    def test_a_drop_keeps_the_cache_and_restores_the_cost(self):
        catalog, (query,) = sample_queries(7, 1)
        backend = LocalBackend(catalog)
        for _ in range(3):
            before = backend.begin_query(query)
        held = before.cache
        column = query.filters[0].column
        index = catalog.index_for(column.table, column.column)
        catalog.materialize_index(index)
        built = backend.begin_query(query)
        assert built.cache is held
        assert built.base.cost == Backend.begin_query(backend, query).base.cost
        assert built.base.cost < before.base.cost
        catalog.drop_index(index)
        after = backend.begin_query(query)
        assert after.cache is held
        assert after.base.cost == before.base.cost
        assert after.base.plan.indexes_used() == before.base.plan.indexes_used()

    def test_materializing_an_index_again_keeps_the_cache(self):
        catalog, (query,) = sample_queries(7, 1)
        backend = LocalBackend(catalog)
        column = query.filters[0].column
        index = catalog.index_for(column.table, column.column)
        catalog.materialize_index(index)
        for _ in range(2):
            session = backend.begin_query(query)
        generation = catalog.generation
        catalog.materialize_index(index)  # already materialized
        assert catalog.generation > generation
        again = backend.begin_query(query)
        assert again.cache is session.cache is backend._live[id(query)].cache
        assert again.base.cost == session.base.cost
        assert again.base.config == backend.current_config()

    def test_two_trackers_with_different_composite_share_a_backend(self):
        catalog, queries = sample_queries(11, 12)
        # An equality plus a range on one table: mines a two-column index.
        queries.append(
            bind_query(
                parse_query(
                    "select l_orderkey from lineitem_1 where l_suppkey = 7 "
                    "and l_shipdate between '1995-12-06' and '1995-12-24'"
                ),
                catalog,
            )
        )
        backend = LocalBackend(catalog)
        plain = CandidateTracker(catalog, 4, 0.5, composite=False)
        wide = CandidateTracker(catalog, 4, 0.5, composite=True)
        for _ in range(3):
            for query in queries:
                session = backend.begin_query(query)
                used = session.base.plan.indexes_used()
                for tracker, composite in ((plain, False), (wide, True)):
                    got = tracker.observe_query(query, used, (), session.cache)
                    alone = CandidateTracker(catalog, 4, 0.5, composite=composite)
                    assert got == alone.observe_query(query, used, (), PlanCache())
        assert len(wide.candidates()) > len(plain.candidates())


class TestLifetime:
    def test_a_never_repeating_stream_retains_nothing(self):
        catalog = build_catalog()
        backend = LocalBackend(catalog)
        rng = random.Random(3)
        for _ in range(10_000):
            backend.begin_query(DIST.sample(catalog, rng))
        gc.collect()
        assert backend._live == {}

    def test_entries_go_with_their_query(self):
        catalog, queries = sample_queries(5, 6)
        backend = LocalBackend(catalog)
        for _ in range(2):
            for query in queries:
                backend.begin_query(query)
        assert len(backend._live) == 6
        gone = id(queries[0])
        del queries[0], query
        gc.collect()
        assert gone not in backend._live
        assert len(backend._live) == 5

    def test_a_recycled_id_never_aliases(self):
        catalog, templates = sample_queries(9, 40)
        backend = LocalBackend(catalog)
        recycled = 0
        for i in range(len(templates) - 1):
            # Shallow copies: new Query objects over shared (never
            # mutated) parts, so freeing one frees exactly one slot.
            old = dataclasses.replace(templates[i])
            for _ in range(3):
                backend.begin_query(old)  # retained
            address = id(old)
            del old
            new = dataclasses.replace(templates[i + 1])  # a different query
            if id(new) != address:
                continue
            recycled += 1
            assert address not in backend._live
            session = backend.begin_query(new)
            want = Backend.begin_query(backend, new)
            assert session.base.cost == want.base.cost
            assert session.base.plan == want.base.plan
        assert recycled, "the allocator never reused an id; test proves nothing"
