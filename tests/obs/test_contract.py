"""Metrics-contract tests: the catalog vs. what is actually exported.

External dashboards key on metric family names, types, and label sets.
These tests pin that contract: every spec in ``repro.obs.names.CATALOG``
must build cleanly, appear in the Prometheus export with its declared
``# TYPE``, and -- for the live tuner and fleet -- actually be
registered by the instrumented components.  And every family must earn
its place: something reads it and a test asserts it.
"""

import pathlib
import random
import re

from repro.core import ColtConfig, ColtTuner
from repro.fleet.coordinator import FleetCoordinator
from repro.obs.export import to_prometheus_text
from repro.obs.names import (
    BACKEND_METRICS,
    BANDIT_METRICS,
    CATALOG,
    FLEET_METRICS,
    GAINCACHE_METRICS,
    PROFILER_METRICS,
    RESILIENCE_METRICS,
    TUNER_METRICS,
    WORKER_METRICS,
)
from repro.obs.registry import MetricsRegistry

from tests.fleet.workloads import build_small_catalog, day_query, eq_query


def _type_lines(text):
    return dict(re.findall(r"^# TYPE (\S+) (\S+)$", text, flags=re.M))


class TestCatalogShape:
    def test_catalog_is_union_of_component_catalogs(self):
        union = {
            **TUNER_METRICS,
            **PROFILER_METRICS,
            **GAINCACHE_METRICS,
            **RESILIENCE_METRICS,
            **FLEET_METRICS,
            **BANDIT_METRICS,
            **BACKEND_METRICS,
            **WORKER_METRICS,
        }
        assert CATALOG == union

    def test_naming_conventions(self):
        for spec in CATALOG.values():
            if spec.kind == "counter":
                assert spec.name.endswith("_total"), spec.name
            else:
                assert not spec.name.endswith("_total"), spec.name
            if spec.kind == "histogram":
                assert spec.buckets, spec.name

    def test_every_spec_builds_and_exports(self):
        registry = MetricsRegistry()
        for spec in CATALOG.values():
            spec.build(registry)
        types = _type_lines(to_prometheus_text(registry.snapshot()))
        assert types == {spec.name: spec.kind for spec in CATALOG.values()}

    def test_exported_label_sets_match_specs(self):
        registry = MetricsRegistry()
        for spec in CATALOG.values():
            spec.build(registry)
        by_name = {f["name"]: f for f in registry.snapshot()}
        for spec in CATALOG.values():
            assert tuple(by_name[spec.name]["labelnames"]) == spec.labelnames


class TestLiveRegistration:
    def test_tuner_registers_every_core_family(self, small_catalog):
        tuner = ColtTuner(
            small_catalog,
            ColtConfig(storage_budget_pages=6000.0, min_history_epochs=2),
        )
        rng = random.Random(3)
        for _ in range(25):
            tuner.process_query(eq_query(rng.randint(1, 10_000)))
        names = set(tuner.metrics.names())
        expected = (
            set(TUNER_METRICS)
            | set(PROFILER_METRICS)
            | set(GAINCACHE_METRICS)
            | set(RESILIENCE_METRICS)
            | set(BACKEND_METRICS)
        )
        assert expected <= names

    def test_bandit_tuner_registers_every_bandit_family(self, small_catalog):
        from repro.bandit import BanditTuner
        from repro.core import ColtConfig

        tuner = BanditTuner(
            small_catalog, ColtConfig(epoch_length=5, storage_budget_pages=6000.0)
        )
        rng = random.Random(3)
        for _ in range(25):
            tuner.process_query(eq_query(rng.randint(1, 10_000)))
        names = set(tuner.metrics.names())
        # The bandit registers its own families plus the shared component
        # catalogs its shim keeps alive (breaker, disabled gain cache) --
        # dashboards keyed on those stay populated when a deployment
        # swaps engines.
        expected = (
            set(BANDIT_METRICS)
            | set(GAINCACHE_METRICS)
            | set(RESILIENCE_METRICS)
            | set(BACKEND_METRICS)
        )
        assert expected <= names

    def test_bandit_fleet_snapshot_covers_full_catalog(self):
        fleet = FleetCoordinator(
            build_small_catalog,
            n_replicas=2,
            config=ColtConfig(storage_budget_pages=6000.0),
            policy="round-robin",
            fleet_epoch_length=10,
            engine="bandit",
        )
        fleet.run([eq_query(i + 1) for i in range(25)])
        snapshot = fleet.metrics_snapshot()
        types = _type_lines(to_prometheus_text(snapshot["metrics"]))
        missing = set(CATALOG) - set(types)
        assert not missing

    def test_fleet_snapshot_covers_full_catalog(self):
        fleet = FleetCoordinator(
            build_small_catalog,
            n_replicas=2,
            config=ColtConfig(
                storage_budget_pages=6000.0, min_history_epochs=2
            ),
            policy="affinity",
            fleet_epoch_length=10,
        )
        queries = [
            eq_query(i + 1) if i % 2 else day_query(8000 + i)
            for i in range(25)
        ]
        fleet.run(queries)
        snapshot = fleet.metrics_snapshot()
        assert set(snapshot) == {"format", "version", "metrics", "overhead"}
        types = _type_lines(to_prometheus_text(snapshot["metrics"]))
        missing = set(CATALOG) - set(types)
        assert not missing
        for name, kind in types.items():
            assert CATALOG[name].kind == kind


ROOT = pathlib.Path(__file__).resolve().parents[2]
#: What reads a family as a contract: the docs (not the generated API
#: reference, which lists whatever the code declares) and the per-layer
#: benchmark.
READERS = [
    *(p for p in sorted((ROOT / "docs").glob("*.md")) if p.name != "API.md"),
    ROOT / "perf" / "layers.py",
]
#: Pins of the whole catalog name every family without asserting one.
CATALOG_WIDE_TESTS = {"test_contract.py", "test_metrics_identity.py"}


def _naming(paths, name):
    pattern = re.compile(rf"\b{name}\b")
    return [p for p in paths if pattern.search(p.read_text())]


class TestEveryFamilyEarnsItsPlace:
    """A family nobody reads is cost, not observability: each one is read
    by a doc or ``perf/layers.py`` and asserted by name in a test
    of its own component."""

    def test_every_family_has_a_reader(self):
        unread = [name for name in CATALOG if not _naming(READERS, name)]
        assert unread == []

    def test_every_family_is_asserted_by_a_test(self):
        tests = [
            p
            for p in sorted((ROOT / "tests").rglob("*.py"))
            if p.name not in CATALOG_WIDE_TESTS
        ]
        unasserted = [name for name in CATALOG if not _naming(tests, name)]
        assert unasserted == []
