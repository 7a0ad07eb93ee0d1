"""Tests for query distributions and literal drawing."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.optimizer.selectivity import predicate_selectivity
from repro.sql.ast import BetweenPredicate, ComparisonPredicate
from repro.sql.binder import bind_query
from repro.workload.datagen import build_catalog
from repro.workload.experiments import (
    noise_distributions,
    phase_distributions,
    relevant_index_count,
    stable_distribution,
)
from repro.workload.querygen import (
    JoinSpec,
    PredicateSpec,
    QueryDistribution,
    QueryTemplate,
    build_query,
)


@pytest.fixture(scope="module")
def catalog():
    return build_catalog()


def _scan_choice(templates, rng):
    """The template draw as a linear scan that re-sums every weight."""
    total = sum(t.weight for t in templates)
    point = rng.uniform(0.0, total)
    acc = 0.0
    for template in templates:
        acc += template.weight
        if point <= acc:
            return template
    return templates[-1]


class TestBuildQuery:
    def test_single_table_query(self, catalog):
        template = QueryTemplate(
            predicates=(PredicateSpec("lineitem_1", "l_shipdate", (0.001, 0.01)),)
        )
        q = build_query(template, catalog, random.Random(1))
        assert q.tables == ["lineitem_1"]
        assert len(q.filters) == 1
        assert q.filters[0].column.column == "l_shipdate"
        # Queries come out bound (tables resolved); bind is a no-op check.
        bind_query(q, catalog)

    def test_join_query(self, catalog):
        template = QueryTemplate(
            predicates=(PredicateSpec("lineitem_1", "l_shipdate", (0.001, 0.01)),),
            join=JoinSpec("orders_1", "l_orderkey", "o_orderkey"),
        )
        q = build_query(template, catalog, random.Random(1))
        assert set(q.tables) == {"lineitem_1", "orders_1"}
        assert len(q.joins) == 1

    def test_aggregate_query(self, catalog):
        template = QueryTemplate(
            predicates=(PredicateSpec("part_1", "p_size", (0.02, 0.08)),),
            aggregate=True,
        )
        q = build_query(template, catalog, random.Random(1))
        assert q.is_aggregate()

    def test_selectivity_within_band(self, catalog):
        rng = random.Random(42)
        spec = PredicateSpec("lineitem_1", "l_shipdate", (0.002, 0.01))
        template = QueryTemplate(predicates=(spec,))
        for _ in range(50):
            q = build_query(template, catalog, rng)
            sel = predicate_selectivity(catalog, q.filters[0])
            assert 0.0005 <= sel <= 0.03  # band with estimation slack

    def test_eq_for_tiny_targets(self, catalog):
        # Target below 1.5/ndistinct → equality predicate.
        spec = PredicateSpec("orders_1", "o_orderkey", (1e-7, 1e-7))
        template = QueryTemplate(predicates=(spec,))
        q = build_query(template, catalog, random.Random(0))
        assert isinstance(q.filters[0], ComparisonPredicate)

    def test_range_for_wide_targets(self, catalog):
        spec = PredicateSpec("lineitem_1", "l_quantity", (0.05, 0.05))
        template = QueryTemplate(predicates=(spec,))
        q = build_query(template, catalog, random.Random(0))
        assert isinstance(q.filters[0], BetweenPredicate)


class TestDistributions:
    def test_weighted_sampling_respects_weights(self, catalog):
        heavy = QueryTemplate(
            predicates=(PredicateSpec("lineitem_1", "l_shipdate"),), weight=9.0
        )
        light = QueryTemplate(
            predicates=(PredicateSpec("orders_1", "o_orderdate"),), weight=1.0
        )
        dist = QueryDistribution("d", (heavy, light))
        rng = random.Random(5)
        tables = [dist.sample(catalog, rng).tables[0] for _ in range(500)]
        heavy_frac = tables.count("lineitem_1") / 500
        assert 0.8 < heavy_frac < 0.99

    @given(
        weights=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(min_value=1e-9, max_value=1e6),
                st.integers(min_value=0, max_value=50),
            ),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_template_choice_matches_the_scan(self, weights, seed):
        templates = tuple(
            QueryTemplate(
                predicates=(PredicateSpec("lineitem_1", f"c{i}"),), weight=w
            )
            for i, w in enumerate(weights)
        )
        dist = QueryDistribution("d", templates)
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert dist.choose_template(fast) is _scan_choice(templates, slow)
        assert fast.getstate() == slow.getstate()

    def test_template_choice_matches_the_scan_on_the_paper_mixtures(self):
        dists = [stable_distribution(), *phase_distributions(), *noise_distributions()]
        for dist in dists:
            fast, slow = random.Random(7), random.Random(7)
            for _ in range(2_000):
                assert dist.choose_template(fast) is _scan_choice(dist.templates, slow)

    def test_relevant_indexes_dedup(self, catalog):
        dist = stable_distribution()
        rel = dist.relevant_indexes(catalog)
        assert len(rel) == len(set(rel))

    def test_stable_has_18_relevant(self, catalog):
        assert relevant_index_count(catalog) == 18

    def test_phases_overlap_consecutively(self, catalog):
        phases = phase_distributions()
        assert len(phases) == 4
        for a, b in zip(phases, phases[1:]):
            overlap = set(a.relevant_indexes(catalog)) & set(b.relevant_indexes(catalog))
            assert overlap, f"{a.name} and {b.name} share no relevant index"

    def test_noise_pair_disjoint(self, catalog):
        q1, q2 = noise_distributions()
        assert not set(q1.relevant_indexes(catalog)) & set(q2.relevant_indexes(catalog))

    def test_samples_are_bindable(self, catalog):
        rng = random.Random(11)
        for dist in [stable_distribution(), *phase_distributions(), *noise_distributions()]:
            for _ in range(20):
                q = dist.sample(catalog, rng)
                bind_query(q, catalog)  # raises on any inconsistency
