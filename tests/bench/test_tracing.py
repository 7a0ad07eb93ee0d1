"""Tests for the experiment tracing module."""

import pytest

from repro.bench.tracing import trace_run
from repro.core.config import ColtConfig
from repro.workload.datagen import build_catalog
from repro.workload.experiments import stable_distribution
from repro.workload.phases import stable_workload


@pytest.fixture(scope="module")
def trace():
    catalog = build_catalog()
    workload = stable_workload(stable_distribution(), 100, catalog, seed=1)
    return trace_run(
        build_catalog(),
        workload.queries,
        ColtConfig(storage_budget_pages=9_000.0),
    )


class TestTraceStructure:
    def test_one_entry_per_epoch(self, trace):
        assert len(trace.epochs) == 10  # 100 queries / w=10

    def test_epoch_numbering(self, trace):
        assert [e.epoch for e in trace.epochs] == list(range(10))

    def test_costs_accumulate(self, trace):
        assert trace.total_cost == pytest.approx(
            sum(e.total_cost for e in trace.epochs)
        )
        for e in trace.epochs:
            assert e.total_cost >= e.execution_cost

    def test_whatif_within_budget(self, trace):
        for e in trace.epochs:
            assert 0 <= e.whatif_used <= trace.config.max_whatif_per_epoch

    def test_set_changes_recorded(self, trace):
        added = [name for e in trace.epochs for name in e.added]
        assert added, "a stable workload run should materialize something"
        # |M| grows consistently with recorded additions/drops.
        size = 0
        for e in trace.epochs:
            size += len(e.added) - len(e.dropped)
            assert len(e.materialized) == size

    def test_ratio_at_least_one(self, trace):
        assert all(e.improvement_ratio >= 1.0 for e in trace.epochs)


class TestRendering:
    def test_timeline_renders(self, trace):
        text = trace.render_timeline()
        assert "exec cost" in text
        assert text.count("\n") >= len(trace.epochs)
        assert "what-if calls" in text

    def test_empty_trace(self):
        from repro.bench.tracing import TunerTrace

        empty = TunerTrace(epochs=[], config=ColtConfig())
        assert "empty" in empty.render_timeline()


class TestJsonRoundtrip:
    def test_roundtrip_preserves_epochs_and_config(self, trace):
        from repro.bench.tracing import TunerTrace

        restored = TunerTrace.from_json(trace.to_json())
        assert restored.epochs == trace.epochs
        assert restored.config == trace.config
        assert restored.total_cost == pytest.approx(trace.total_cost)

    def test_accepts_parsed_dict(self, trace):
        import json

        from repro.bench.tracing import TunerTrace

        payload = json.loads(trace.to_json())
        restored = TunerTrace.from_json(payload)
        assert len(restored.epochs) == len(trace.epochs)

    def test_indent_produces_readable_output(self, trace):
        assert trace.to_json(indent=2).count("\n") > len(trace.epochs)

    def test_empty_trace_roundtrips(self):
        from repro.bench.tracing import TunerTrace

        empty = TunerTrace(epochs=[], config=ColtConfig())
        restored = TunerTrace.from_json(empty.to_json())
        assert restored.epochs == []

    def test_retired_config_field_is_dropped_not_fatal(self, trace):
        import json

        from repro.bench.tracing import TunerTrace

        payload = json.loads(trace.to_json())
        payload["config"]["knapsack_warm_start"] = True  # as an earlier version wrote it
        assert TunerTrace.from_json(payload).config == trace.config
        payload["config"]["no_such_field"] = 1
        with pytest.raises(ValueError, match="malformed"):
            TunerTrace.from_json(payload)

    def test_missing_keys_rejected(self):
        from repro.bench.tracing import TunerTrace

        with pytest.raises(ValueError, match="missing keys"):
            TunerTrace.from_json('{"epochs": []}')
        with pytest.raises(ValueError, match="missing keys"):
            TunerTrace.from_json("[1, 2, 3]")

    def test_malformed_epoch_rejected(self, trace):
        import json

        from repro.bench.tracing import TunerTrace

        payload = json.loads(trace.to_json())
        payload["epochs"][0].pop("execution_cost")
        with pytest.raises(ValueError, match="malformed"):
            TunerTrace.from_json(payload)


class TestEngineTag:
    """The trace payload names its engine; an absent tag means COLT."""

    @pytest.fixture(scope="class", params=["colt", "bandit"])
    def replica_trace(self, request):
        from repro.fleet.replica import TunerReplica

        catalog = build_catalog()
        workload = stable_workload(stable_distribution(), 40, catalog, seed=1)
        replica = TunerReplica(
            0,
            build_catalog(),
            ColtConfig(storage_budget_pages=9_000.0),
            engine=request.param,
        )
        for query in workload.queries:
            replica.process(query)
        return request.param, replica.trace()

    def test_replica_trace_round_trips_for_every_engine(self, replica_trace):
        # Every engine's trace carries the ColtConfig its replica ran.
        from repro.bench.tracing import TunerTrace

        engine, trace = replica_trace
        restored = TunerTrace.from_json(trace.to_json())
        assert restored.engine == engine
        assert isinstance(restored.config, ColtConfig)
        assert restored.config == trace.config
        assert restored.epochs == trace.epochs and len(trace.epochs) == 4

    def test_colt_payload_carries_no_tag(self, trace):
        import json

        assert "engine" not in json.loads(trace.to_json())

    def test_unknown_engine_tag_rejected(self, trace):
        import json

        from repro.bench.tracing import TunerTrace

        payload = json.loads(trace.to_json())
        payload["engine"] = "quantum"
        with pytest.raises(ValueError, match="unknown engine"):
            TunerTrace.from_json(payload)

    def test_trace_run_serves_every_engine(self):
        catalog = build_catalog()
        workload = stable_workload(stable_distribution(), 30, catalog, seed=1)
        bandit = trace_run(build_catalog(), workload.queries, engine="bandit")
        assert bandit.engine == "bandit" and len(bandit.epochs) == 3
        assert "exec cost" in bandit.render_timeline()
