"""System-level property tests.

These pin the cross-module invariants the whole reproduction leans on:

* the optimizer never gets *worse* when offered more indexes
  (monotonicity of the configuration lattice);
* what-if gains are consistent with direct optimization under any
  configuration;
* COLT never violates its storage budget, never overlaps hot and
  materialized sets, and never exceeds its per-epoch what-if budget --
  whatever the workload.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.local import LocalBackend
from repro.core import ColtConfig, ColtTuner
from repro.optimizer.optimizer import Optimizer, PlanCache
from repro.optimizer.whatif import WhatIfOptimizer
from repro.sql.ast import (
    BetweenPredicate,
    ColumnExpr,
    CompareOp,
    ComparisonPredicate,
    Query,
    SelectItem,
)
from repro.workload.datagen import build_catalog
from repro.workload.experiments import stable_distribution

CATALOG = build_catalog()
DIST = stable_distribution()
ALL_RELEVANT = DIST.relevant_indexes(CATALOG)


@st.composite
def _workload_query(draw):
    seed = draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    return DIST.sample(CATALOG, rng)


@st.composite
def _config_pair(draw):
    """A configuration and a superset of it."""
    base_idx = draw(
        st.sets(st.integers(0, len(ALL_RELEVANT) - 1), max_size=4)
    )
    extra_idx = draw(
        st.sets(st.integers(0, len(ALL_RELEVANT) - 1), max_size=3)
    )
    base = frozenset(ALL_RELEVANT[i] for i in base_idx)
    superset = base | frozenset(ALL_RELEVANT[i] for i in extra_idx)
    return base, superset


class TestOptimizerMonotonicity:
    @given(query=_workload_query(), configs=_config_pair())
    @settings(max_examples=60, deadline=None)
    def test_more_indexes_never_hurt(self, query, configs):
        base, superset = configs
        optimizer = Optimizer(CATALOG)
        small = optimizer.optimize(query, config=base, cache=PlanCache()).cost
        large = optimizer.optimize(query, config=superset, cache=PlanCache()).cost
        assert large <= small + 1e-6

    @given(query=_workload_query())
    @settings(max_examples=40, deadline=None)
    def test_plan_cost_positive_and_finite(self, query):
        result = Optimizer(CATALOG).optimize(query, config=frozenset())
        assert 0.0 < result.cost < float("inf")
        assert result.plan.rows >= 0.0

    @given(query=_workload_query(), configs=_config_pair())
    @settings(max_examples=40, deadline=None)
    def test_optimization_deterministic(self, query, configs):
        base, _ = configs
        a = Optimizer(CATALOG).optimize(query, config=base, cache=PlanCache())
        b = Optimizer(CATALOG).optimize(query, config=base, cache=PlanCache())
        assert a.cost == b.cost


class TestWhatIfConsistency:
    @given(query=_workload_query(), index_pos=st.integers(0, len(ALL_RELEVANT) - 1))
    @settings(max_examples=50, deadline=None)
    def test_gain_equals_cost_difference(self, query, index_pos):
        index = ALL_RELEVANT[index_pos]
        optimizer = Optimizer(CATALOG)
        whatif = WhatIfOptimizer(LocalBackend(CATALOG))
        assert whatif.backend.current_config() == frozenset()
        session = whatif.begin_query(query)
        gain = whatif.what_if_optimize(session, [index])[index]
        without = optimizer.optimize(query, config=frozenset(), cache=PlanCache()).cost
        with_ix = optimizer.optimize(
            query, config=frozenset([index]), cache=PlanCache()
        ).cost
        assert gain == pytest.approx(without - with_ix, abs=1e-6)
        assert gain >= -1e-6  # an extra index never hurts this optimizer


class TestColtInvariants:
    @given(
        seed=st.integers(0, 1000),
        budget=st.sampled_from([3_000.0, 6_000.0, 9_000.0]),
        max_wi=st.sampled_from([0, 4, 20]),
    )
    @settings(max_examples=12, deadline=None)
    def test_run_invariants(self, seed, budget, max_wi):
        catalog = build_catalog()
        config = ColtConfig(
            storage_budget_pages=budget,
            max_whatif_per_epoch=max_wi,
            min_history_epochs=2,
            seed=seed,
        )
        tuner = ColtTuner(catalog, config)
        rng = random.Random(seed)
        epoch_calls = 0
        for _ in range(80):
            outcome = tuner.process_query(DIST.sample(catalog, rng))
            epoch_calls += outcome.whatif_calls
            # Budget invariant, checked after every single query.
            assert catalog.materialized_size_pages() <= budget + 1e-6
            # Ledger is internally consistent.
            assert outcome.total_cost >= outcome.execution_cost
            if outcome.epoch_ended:
                assert epoch_calls <= max_wi
                epoch_calls = 0
                # Hot and materialized never overlap.
                hot = set(tuner.hot_set)
                mat = set(tuner.materialized_set)
                assert not hot & mat
        # The self-organizer's view matches the catalog's.
        assert set(tuner.materialized_set) == set(catalog.materialized_indexes())

    def test_zero_whatif_budget_still_safe(self):
        """With profiling fully disabled COLT must never materialize
        (no evidence can reach the conservative knapsack)."""
        catalog = build_catalog()
        config = ColtConfig(
            storage_budget_pages=9_000.0, max_whatif_per_epoch=0
        )
        tuner = ColtTuner(catalog, config)
        rng = random.Random(0)
        for _ in range(100):
            tuner.process_query(DIST.sample(catalog, rng))
        assert tuner.materialized_set == []


class TestQueryCostSanity:
    @given(
        user=st.integers(1, 10_000),
        width_days=st.integers(1, 200),
    )
    @settings(max_examples=40, deadline=None)
    def test_wider_ranges_cost_no_less(self, user, width_days):
        """Under a fixed index config, widening a range predicate never
        reduces the estimated cost."""
        catalog = CATALOG
        index = catalog.index_for("lineitem_1", "l_shipdate")
        config = frozenset([index])
        optimizer = Optimizer(catalog)

        def q(width):
            return Query(
                tables=["lineitem_1"],
                select=[SelectItem(expr=ColumnExpr("l_orderkey", "lineitem_1"))],
                filters=[
                    BetweenPredicate(
                        ColumnExpr("l_shipdate", "lineitem_1"), 8035, 8035 + width
                    )
                ],
            )

        narrow = optimizer.optimize(q(width_days), config=config, cache=PlanCache()).cost
        wide = optimizer.optimize(
            q(width_days * 2), config=config, cache=PlanCache()
        ).cost
        assert wide >= narrow - 1e-6

    def test_eq_cheaper_than_wide_range(self):
        catalog = CATALOG
        optimizer = Optimizer(catalog)
        config = frozenset([catalog.index_for("orders_1", "o_orderkey")])

        def mk(pred):
            return Query(
                tables=["orders_1"],
                select=[SelectItem(expr=ColumnExpr("o_custkey", "orders_1"))],
                filters=[pred],
            )

        eq = mk(
            ComparisonPredicate(
                ColumnExpr("o_orderkey", "orders_1"), CompareOp.EQ, 17
            )
        )
        rng_pred = mk(
            BetweenPredicate(ColumnExpr("o_orderkey", "orders_1"), 1, 150_000)
        )
        assert (
            optimizer.optimize(eq, config=config, cache=PlanCache()).cost
            < optimizer.optimize(rng_pred, config=config, cache=PlanCache()).cost
        )
