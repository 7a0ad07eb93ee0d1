"""Integration tests: the full stack on physical TPC-H data.

These tests run the tuner against a physically-populated store, execute
queries for real before and after tuning, and check that (a) results are
identical and (b) the tuner's decisions correspond to physically built
B+trees the executor can actually use.
"""

import random

import pytest

from repro.core import ColtConfig, ColtTuner
from repro.executor import execute
from repro.optimizer.optimizer import Optimizer, PlanCache
from repro.optimizer.plan import IndexScanNode
from repro.workload.datagen import build_physical
from repro.workload.experiments import stable_distribution
from repro.workload.phases import stable_workload


@pytest.fixture(scope="module")
def physical_store():
    return build_physical(instances=2, scale=0.002, seed=5)


class TestPhysicalTuning:
    def test_tuner_builds_usable_indexes(self, physical_store):
        store = physical_store
        catalog = store.catalog
        config = ColtConfig(storage_budget_pages=9000.0, min_history_epochs=2)
        tuner = ColtTuner(catalog, config, store=store)
        workload = stable_workload(stable_distribution(), 150, catalog, seed=2)

        # Record reference results for a probe query before any tuning.
        probe = workload.queries[0]
        reference = sorted(execute(Optimizer(catalog).optimize(probe).plan, store))

        for query in workload.queries:
            tuner.process_query(query)

        assert tuner.materialized_set, "expected COLT to materialize indexes"
        for index in tuner.materialized_set:
            tree = store.tree(index)
            assert tree is not None
            assert len(tree) == len(store.heap(index.table))

        # The probe query still returns identical rows, now through
        # whatever plan the tuned configuration produces.
        after = sorted(execute(Optimizer(catalog).optimize(probe).plan, store))
        assert after == reference

    def test_tuned_plans_actually_use_indexes(self, physical_store):
        store = physical_store
        catalog = store.catalog
        workload = stable_workload(stable_distribution(), 30, catalog, seed=7)
        config = frozenset(catalog.materialized_indexes())
        used_any = False
        for q in workload.queries:
            plan = Optimizer(catalog).optimize(q, cache=PlanCache()).plan
            if any(isinstance(n, IndexScanNode) for n in _walk(plan)):
                used_any = True
                execute(plan, store)  # must run without error
        assert used_any

    def test_builds_happen_at_the_boundary_that_requests_them(self):
        # The stable distribution spans instances 1-2.
        store = build_physical(instances=2, scale=0.001, seed=9)
        catalog = store.catalog
        config = ColtConfig(storage_budget_pages=9000.0, min_history_epochs=2)
        tuner = ColtTuner(catalog, config, store=store)
        workload = stable_workload(stable_distribution(), 80, catalog, seed=3)
        built = []
        for query in workload.queries:
            outcome = tuner.process_query(query)
            reorg = outcome.reorganization
            if reorg is None or not reorg.materialize:
                continue
            assert outcome.build_cost > 0.0
            for index in reorg.materialize:
                tree = store.tree(index)
                assert tree is not None
                assert len(tree) == len(store.heap(index.table))
            built.extend(reorg.materialize)
        assert built, "expected COLT to materialize indexes"
        assert tuner.scheduler.total_build_cost > 0.0


class TestExecutionEquivalenceUnderTuning:
    def test_results_stable_across_configuration_changes(self, physical_store):
        """Execute the same queries under every configuration the tuner
        passes through; results must never change."""
        store = physical_store
        catalog = store.catalog
        rng = random.Random(0)
        probes = stable_workload(stable_distribution(), 5, catalog, seed=99).queries
        reference = [
            sorted(execute(Optimizer(catalog).optimize(p, config=frozenset()).plan, store))
            for p in probes
        ]

        config = ColtConfig(storage_budget_pages=9000.0, min_history_epochs=2)
        tuner = ColtTuner(catalog, config, store=store)
        workload = stable_workload(stable_distribution(), 60, catalog, seed=rng.randrange(100))
        seen_configs = set()
        for q in workload.queries:
            outcome = tuner.process_query(q)
            if outcome.epoch_ended:
                key = frozenset(tuner.materialized_set)
                if key not in seen_configs:
                    seen_configs.add(key)
                    for probe, expected in zip(probes, reference):
                        plan = Optimizer(catalog).optimize(probe, cache=PlanCache()).plan
                        assert sorted(execute(plan, store)) == expected


def _walk(plan):
    stack = [plan]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())
