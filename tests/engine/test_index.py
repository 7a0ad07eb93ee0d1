"""Unit tests for index descriptors."""

import pytest

from repro.engine.cost_params import CostParams
from repro.engine.datatypes import DataType
from repro.engine.index import IndexDef


class TestIndexDef:
    def test_identity_is_table_column(self):
        a = IndexDef("t", "c", DataType.INT)
        b = IndexDef("t", "c", DataType.INT)
        assert a == b
        assert hash(a) == hash(b)
        assert a != IndexDef("t", "d", DataType.INT)

    def test_name(self):
        assert IndexDef("lineitem_1", "l_shipdate", DataType.DATE).name == (
            "ix_lineitem_1_l_shipdate"
        )

    def test_usable_in_sets(self):
        s = {IndexDef("t", "c", DataType.INT)}
        assert IndexDef("t", "c", DataType.INT) in s


class TestSizing:
    def test_size_grows_with_rows(self):
        params = CostParams()
        ix = IndexDef("t", "c", DataType.INT)
        assert ix.size_pages(1_000_000, params) > ix.size_pages(1_000, params)

    def test_wider_keys_bigger_index(self):
        params = CostParams()
        narrow = IndexDef("t", "c", DataType.INT).size_pages(100_000, params)
        wide = IndexDef("t", "c", DataType.TEXT).size_pages(100_000, params)
        assert wide > narrow

    def test_materialization_cost_components(self):
        params = CostParams()
        ix = IndexDef("t", "c", DataType.INT)
        cost = ix.materialization_cost(100_000, 1000.0, params)
        # Must at least cover the heap scan.
        assert cost > 1000.0 * params.seq_page_cost

    def test_materialization_cost_monotone_in_rows(self):
        params = CostParams()
        ix = IndexDef("t", "c", DataType.INT)
        assert ix.materialization_cost(200_000, 2000.0, params) > (
            ix.materialization_cost(100_000, 1000.0, params)
        )


class TestIdentityAcrossCatalogs:
    """Every per-index map is keyed by the ``IndexDef`` itself.

    Fleet replicas, worker processes and snapshot restores hand a tuner
    descriptors built by another catalog (or rebuilt by ``pickle``); each
    must find the entries a first catalog's descriptor made.
    """

    @staticmethod
    def _pair(kind, columns):
        import pickle

        from repro.workload import build_catalog

        catalog = build_catalog()
        index = catalog.composite_index_for("lineitem_1", columns)
        if kind == "other catalog":
            probe = build_catalog().composite_index_for("lineitem_1", columns)
        else:
            probe = pickle.loads(pickle.dumps(index))
        assert probe is not index and probe == index
        return catalog, index, probe

    KINDS = pytest.mark.parametrize("kind", ["other catalog", "pickled"])
    COLUMNS = pytest.mark.parametrize(
        "columns", [["l_shipdate"], ["l_shipdate", "l_quantity"]], ids=["single", "composite"]
    )

    @KINDS
    @COLUMNS
    def test_guardrail_maps(self, kind, columns):
        from repro.guardrails.quarantine import Quarantine
        from repro.guardrails.verify import IndexVerifier, Observation

        catalog, index, probe = self._pair(kind, columns)
        quarantine = Quarantine()
        entry = quarantine.admit(index, 0.1)
        assert probe in quarantine
        assert quarantine.entries == [entry]
        assert quarantine.tick_epoch([probe]) == []

        verifier = IndexVerifier()
        state = verifier.record(index, Observation(10.0, 100.0, 10.0, 100.0))
        assert verifier.states == [state]
        verifier.reset(probe)
        assert len(verifier) == 0

    @KINDS
    @COLUMNS
    def test_tuner_maps(self, kind, columns):
        from types import SimpleNamespace

        from repro.bandit.tuner import SAFETY_COOLDOWN_EPOCHS, SafetyWatch
        from repro.core.candidates import CandidateTracker
        from repro.core.config import ColtConfig
        from repro.core.self_organizer import SelfOrganizer

        catalog, index, probe = self._pair(kind, columns)
        tracker = CandidateTracker(catalog, 4, 0.5)
        tracker.seed([index])
        assert tracker.stats_for(probe).index is index
        assert tracker.seed([probe]) == 0
        assert tracker.ranked(exclude=[probe]) == []

        organizer = SelfOrganizer(catalog, ColtConfig())
        assert organizer.record(probe) is organizer.record(index)

        watch = SafetyWatch(SimpleNamespace(inc=lambda: None))
        watch.watch = ([index], 10.0)
        (ruling,) = watch.rulings(0, 100.0, {probe})
        assert ruling.index == index and watch.bans[probe] == SAFETY_COOLDOWN_EPOCHS

        catalog.materialize_index(index)
        assert catalog.is_materialized(probe)
        catalog.drop_index(probe)
        assert not catalog.is_materialized(index)
        assert catalog.materialized_indexes() == []

    def test_one_column_composite_is_the_interned_single(self):
        from repro.workload import build_catalog

        catalog = build_catalog()
        single = catalog.index_for("lineitem_1", "l_shipdate")
        assert catalog.composite_index_for("lineitem_1", ["l_shipdate"]) is single

    def test_a_composite_is_interned(self):
        from repro.workload import build_catalog

        catalog = build_catalog()
        first = catalog.composite_index_for("lineitem_1", ["l_shipdate", "l_quantity"])
        again = catalog.composite_index_for("lineitem_1", ("l_shipdate", "l_quantity"))
        assert again is first
        other = catalog.composite_index_for("lineitem_1", ["l_quantity", "l_shipdate"])
        assert other is not first and other != first
        for bad in ([], ["l_shipdate", "l_shipdate"]):
            with pytest.raises(ValueError):
                catalog.composite_index_for("lineitem_1", bad)
