"""What the per-query frame holds equals what it would compute afresh.

A repeated query no longer pays for state that did not change since the
previous one: the profiler keeps the name-ordered hot set, the optimizer
keeps the current configuration's restriction per referenced-column set
(and each retained plan cache its query's referenced columns), and an
optimization result carries the indexes its plan uses.  Each is checked
on the value it was derived from -- content equality of the live set,
identity of the configuration object ``current_config`` hands out -- so
after any interleaving of the things that move those values, what is
served must equal the function it replaces:

* ``Profiler._pool``'s ``I_M`` / ``I_H`` lists against a fresh
  ``sorted(..., key=str)`` filter, on every query a tuner profiles, with
  ``M`` and ``H`` mutated in place the way the tuners, snapshot restore
  and other tests do;
* ``Optimizer.relevant`` against ``relevant_config`` -- which stays the
  one definition of relevance -- for current and what-if configurations
  across ``materialize_index`` / ``drop_index``;
* ``result.indexes_used`` against ``result.plan.indexes_used()`` for
  every result a plan cache serves.

No test here fixes ``max_examples``: the ``deep`` profile
(``tests/conftest.py``) decides the depth.  CI runs this file under two
hash salts: a held name-ordered view of a set is exactly where a
salt-dependent order would leak.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ColtConfig, ColtTuner
from repro.core.knapsack import Ruling
from repro.optimizer.optimizer import (
    Optimizer,
    PlanCache,
    referenced_columns,
    relevant_config,
)
from repro.persist import restore_any, snapshot_any
from repro.resilience.faults import FaultInjector
from repro.workload import build_catalog

from tests.core.test_close_identity import shifting_workload_base

INSERT_TABLES = ("lineitem_1", "lineitem_2", "orders_1", "orders_2")


# The system benchmark's ``shift_cyclic`` base; bound queries replay
# across identical catalogs.
QUERIES = shifting_workload_base(build_catalog()).queries
#: Indexable (table, column) pairs the stream's predicates mention, in a
#: fixed order: the pool in-place mutations and advisories draw from.
COLUMNS = sorted({pair for query in QUERIES for pair in referenced_columns(query)})


def _fresh_pool(cluster, plan, hot, materialized):
    """``I_M`` and ``I_H`` as ``profile_query`` derived them on every query."""
    used = plan.indexes_used()
    relevant = [
        ix
        for ix in sorted(hot, key=str)
        if (ix.table, ix.column) in cluster.selection_attributes
        or ix.table in cluster.tables
    ]
    return [ix for ix in sorted(materialized, key=str) if ix in used], relevant


def _checked(tuner, seen):
    """Hold every ``_pool`` and every session of ``tuner`` to the fresh value."""
    profiler, whatif = tuner.profiler, tuner.whatif
    pool, begin_query = profiler._pool, whatif.begin_query
    sessions = []

    def checked_begin(query):
        session = begin_query(query)
        sessions.append(session)
        assert session.base.indexes_used == session.base.plan.indexes_used()
        assert session.base.config == tuner.backend.current_config()
        return session

    def checked_pool(cluster, used, hot, materialized):
        got = pool(cluster, used, hot, materialized)
        plan = sessions[-1].base.plan
        assert used == plan.indexes_used()
        assert got == _fresh_pool(cluster, plan, hot, materialized)
        seen[0] += bool(got[0])
        seen[1] += bool(got[1])
        return got

    whatif.begin_query = checked_begin
    profiler._pool = checked_pool


_column = st.integers(0, len(COLUMNS) - 1)
_step = st.one_of(
    st.tuples(st.just("queries"), st.integers(0, len(QUERIES) - 1), st.integers(1, 12)),
    st.tuples(st.just("insert"), st.sampled_from(INSERT_TABLES), st.none()),
    st.tuples(st.just("hot_add"), _column, st.none()),
    st.tuples(st.just("hot_discard"), _column, st.none()),
    st.tuples(st.just("mat_add"), _column, st.none()),
    st.tuples(st.just("mat_discard"), _column, st.none()),
    st.tuples(st.just("fail_build"), st.none(), st.none()),
    st.tuples(st.just("advise"), st.lists(_column, max_size=3), st.none()),
    st.tuples(st.just("restore"), st.none(), st.none()),
)


class TestProfilerPoolEqualsFreshFilter:
    @given(steps=st.lists(_step, max_size=30))
    @settings(deadline=None)
    def test_any_interleaving(self, steps):
        config = ColtConfig(epoch_length=5)
        injector = FaultInjector(seed=1)
        tuner = ColtTuner(build_catalog(), config, fault_injector=injector)
        seen = [0, 0]
        _checked(tuner, seen)
        # A warm start, so the sets the steps disturb are not empty.
        for query in QUERIES[:40]:
            tuner.process_query(query)
        for kind, arg, count in steps:
            so = tuner.self_organizer
            if kind == "queries":
                for query in (QUERIES * 2)[arg : arg + count]:
                    tuner.process_query(query)
            elif kind == "insert":
                tuner.process_insert(arg, count=50)
            elif kind == "hot_add":
                so.hot.add(tuner.catalog.index_for(*COLUMNS[arg]))
            elif kind == "hot_discard":
                so.hot.discard(tuner.catalog.index_for(*COLUMNS[arg]))
            elif kind == "mat_add":  # as snapshot restore adopts an index
                index = tuner.catalog.index_for(*COLUMNS[arg])
                tuner.catalog.materialize_index(index)
                tuner.materialized.add(index)
            elif kind == "mat_discard":
                index = tuner.catalog.index_for(*COLUMNS[arg])
                if index in tuner.materialized:
                    tuner.catalog.drop_index(index)
                    tuner.materialized.discard(index)
            elif kind == "fail_build":
                injector.arm("build")
            elif kind == "advise":
                tuner.push_rulings(
                    "advisory",
                    [
                        Ruling(tuner.catalog.index_for(*COLUMNS[i]), "prefer", "advisory")
                        for i in arg
                    ],
                )
            else:
                tuner = restore_any(build_catalog(), snapshot_any(tuner))
                injector = FaultInjector(seed=1)
                injector.attach(tuner)
                _checked(tuner, seen)
            # The next arrival meets whatever the step left behind.
            tuner.process_query(QUERIES[len(tuner.materialized) % len(QUERIES)])

    def test_the_stream_fills_both_lists(self):
        """The property is only worth running if the lists are not empty."""
        tuner = ColtTuner(build_catalog(), ColtConfig(epoch_length=5))
        seen = [0, 0]
        _checked(tuner, seen)
        for query in QUERIES:
            tuner.process_query(query)
        assert min(seen) > 50

    def test_in_place_mutation_between_two_queries(self):
        """The case an ``id`` / ``len`` check would miss: one out, one in."""
        tuner = ColtTuner(build_catalog(), ColtConfig(epoch_length=1000))
        _checked(tuner, [0, 0])
        hot = tuner.self_organizer.hot
        first, second = (tuner.catalog.index_for(*pair) for pair in COLUMNS[:2])
        hot.add(first)
        tuner.process_query(QUERIES[0])
        hot.discard(first)
        hot.add(second)
        tuner.process_query(QUERIES[0])
        assert tuner.profiler._hot_ordered == [second]


_index_step = st.one_of(
    st.tuples(st.sampled_from(["materialize", "drop", "hypothesize", "forget"]), _column),
    st.tuples(st.just("check"), st.integers(0, len(QUERIES) - 1)),
)


class TestRestrictionEqualsRelevantConfig:
    @given(steps=st.lists(_index_step, max_size=40), probe=_column)
    @settings(deadline=None)
    def test_current_and_probe_configurations(self, steps, probe):
        catalog = build_catalog()
        optimizer = Optimizer(catalog)
        caches = {}  # one retained cache per query, as begin_query keeps them
        hypothetical = set()  # unbuilt indexes a probe configuration adds
        stale = optimizer.current_config()
        for kind, arg in steps + [("check", 0)]:
            if kind == "check":
                query = QUERIES[arg]
                cache = caches.setdefault(arg, PlanCache())
                index = catalog.index_for(*COLUMNS[probe])
                current = optimizer.current_config()
                for config in (
                    current,
                    current | {index},
                    current - {index},
                    frozenset(current),  # equal content, another object
                    current | hypothetical,  # an explicit probe configuration
                    stale,  # an object handed out before the set moved
                ):
                    got = optimizer.relevant(query, config, cache)
                    assert got == relevant_config(query, config)
                    result = optimizer.optimize(query, config, cache)
                    assert result is cache.plans[got]
                assert cache.referenced == referenced_columns(query)
                for result in cache.plans.values():
                    assert result.indexes_used == result.plan.indexes_used()
                stale = current
                continue
            index = catalog.index_for(*COLUMNS[arg])
            if kind == "materialize":
                catalog.materialize_index(index)
            elif kind == "drop":
                catalog.drop_index(index)
            elif kind == "hypothesize":
                hypothetical.add(index)
            else:
                hypothetical.discard(index)

    def test_one_restriction_object_per_generation(self):
        """A repeated query's base optimization is two dict lookups."""
        catalog = build_catalog()
        optimizer = Optimizer(catalog)
        query, cache = QUERIES[0], PlanCache()
        config = optimizer.current_config()
        first = optimizer.relevant(query, config, cache)
        assert optimizer.relevant(query, config, cache) is first
        assert optimizer.relevant(query, config, PlanCache()) is first
        (table, column) = sorted(referenced_columns(query))[0]
        catalog.materialize_index(catalog.index_for(table, column))
        moved = optimizer.current_config()
        assert moved is not config
        assert optimizer.relevant(query, moved, cache) == relevant_config(query, moved)
        assert optimizer.relevant(query, moved, cache) != first
        # The configuration the memo was filled under is no longer current.
        assert optimizer.relevant(query, config, cache) == first
