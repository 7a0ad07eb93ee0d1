"""Tests that the instrumented components report truthful metrics.

Each test cross-checks a metric family against ground truth the
component already exposes (outcome ledgers, dashboard rows, breaker
transition logs), so a broken hook shows up as a disagreement rather
than just a zero.
"""

import random
import sys
import time

import pytest

from repro.backend import CostTraceRecorder, LocalBackend, TraceBackend
from repro.bandit.tuner import BanditTuner
from repro.core import ColtConfig, ColtTuner
from repro.obs.registry import MetricsRegistry
from repro.resilience.breaker import CircuitBreaker

from tests.fleet.workloads import build_small_catalog, day_query, eq_query


def _tuner(small_catalog, **kwargs):
    config = ColtConfig(
        storage_budget_pages=6000.0, min_history_epochs=2
    )
    return ColtTuner(small_catalog, config, **kwargs)


def _run(tuner, n, seed=7):
    rng = random.Random(seed)
    outcomes = []
    for i in range(n):
        if i % 3 == 2:
            outcomes.append(tuner.process_query(day_query(8000 + i)))
        else:
            outcomes.append(
                tuner.process_query(eq_query(rng.randint(1, 10_000)))
            )
    return outcomes


class TestTunerCounters:
    def test_query_and_epoch_counts_match_ledger(self, small_catalog):
        tuner = _tuner(small_catalog)
        outcomes = _run(tuner, 47)
        registry = tuner.metrics
        assert registry.get("colt_queries_total").value() == 47
        epochs = sum(1 for o in outcomes if o.epoch_ended)
        assert registry.get("colt_epochs_total").value() == epochs
        assert len(tuner.dashboard.records) == epochs

    def test_cost_counters_match_outcome_ledger(self, small_catalog):
        tuner = _tuner(small_catalog)
        outcomes = _run(tuner, 40)
        registry = tuner.metrics
        assert registry.get("colt_whatif_calls_total").value() == sum(
            o.whatif_calls for o in outcomes
        )
        assert registry.get(
            "colt_whatif_overhead_cost_total"
        ).value() == pytest.approx(sum(o.whatif_overhead for o in outcomes))
        assert registry.get("colt_execution_cost_total").value() == pytest.approx(
            sum(o.execution_cost for o in outcomes)
        )
        assert registry.get("colt_query_cost").count() == 40
        assert registry.get("colt_query_cost").sum() == pytest.approx(
            sum(o.execution_cost for o in outcomes)
        )

    def test_gauges_reflect_current_state(self, small_catalog):
        tuner = _tuner(small_catalog)
        _run(tuner, 40)
        assert tuner.metrics.get("profiler_clusters").value() == (
            tuner.profiler.clusters.live_at_last_assign()
        ) > 0


class TestProfilerCounters:
    @pytest.mark.parametrize("gain_cache", [False, True], ids=["cache-off", "cache-on"])
    def test_probe_counters_match_the_whatif_ledger(self, small_catalog, gain_cache):
        tuner = ColtTuner(
            small_catalog,
            ColtConfig(
                storage_budget_pages=6000.0, min_history_epochs=2, gain_cache=gain_cache
            ),
        )
        outcomes = _run(tuner, 60)
        registry = tuner.metrics
        probes = registry.get("profiler_probes_total").value()
        # Every probe is one what-if call; a structural zero served by the
        # gain cache spends a budget unit without one.
        assert probes == sum(o.whatif_calls for o in outcomes) > 0
        hits = registry.get("gaincache_hits_total").value(kind="structural")
        assert registry.get("profiler_whatif_spent_total").value() == probes + hits
        assert (hits > 0) == gain_cache


class TestBackendCounter:
    def test_counts_every_pricing_request_the_replay_answers(self, small_catalog):
        recorder = CostTraceRecorder()
        live = _tuner(
            small_catalog, backend=LocalBackend(small_catalog, recorder=recorder)
        )
        _run(live, 40)
        catalog = build_small_catalog()
        replay = TraceBackend(catalog, recorder.trace)
        replayed = _tuner(catalog, backend=replay)
        _run(replayed, 40)
        # The replay answers the same requests, one trace lookup each.
        calls = {
            name: tuner.metrics.get("backend_optimize_calls_total").value(backend=name)
            for name, tuner in (("local", live), ("trace", replayed))
        }
        assert calls["local"] == calls["trace"] == replay.replayed > 40


class TestOverheadDashboard:
    def test_spend_never_exceeds_grant(self, small_catalog):
        tuner = _tuner(small_catalog)
        _run(tuner, 60)
        rows = tuner.dashboard.to_rows()
        assert rows, "expected at least one closed epoch"
        for row in rows:
            assert row["spent"] <= row["granted"] <= row["requested"]
        assert tuner.dashboard.within_budget

    def test_snapshot_carries_metrics_and_overhead(self, small_catalog):
        tuner = _tuner(small_catalog)
        _run(tuner, 30)
        snapshot = tuner.metrics_snapshot()
        assert set(snapshot) == {"format", "version", "metrics", "overhead"}
        assert len(snapshot["overhead"]) == len(tuner.dashboard.records)


class TestBreakerTransitions:
    def test_listener_counts_every_transition(self, small_catalog):
        registry = MetricsRegistry()
        breaker = CircuitBreaker(failure_threshold=2, cooldown_ticks=1)
        tuner = _tuner(small_catalog, breaker=breaker, registry=registry)
        for _ in range(2):
            breaker.record_failure()
        breaker.tick()  # cooldown elapses -> HALF_OPEN
        counter = tuner.metrics.get("breaker_transitions_total")
        assert counter.value(from_state="closed", to_state="open") == 1
        assert counter.value(from_state="open", to_state="half_open") == 1
        assert sum(
            s["value"] for s in counter.samples()
        ) == len(breaker.transitions)


class _CountingFamily:
    """Collector double: logs every update, bound or through the family."""

    def __init__(self, log, name):
        self._log = log
        self.name = name

    def labels(self, **labels):
        return self

    def inc(self, *args, **labels):
        self._log.append(self.name)

    dec = set = observe = inc

    def set_function(self, read, **labels):
        """A total its owner keeps costs the hot path no update."""

    def value(self, **labels):
        return 0.0


class CountingRegistry:
    """Registry double counting collector updates (what a query *does*,
    not how long it takes: deterministic, so it can gate in tier 1)."""

    def __init__(self):
        self.updates = []

    def counter(self, name, help, labelnames=(), buckets=None):
        return _CountingFamily(self.updates, name)

    gauge = histogram = counter

    def snapshot(self):
        return []


#: The `time` module clocks a query could read.
CLOCKS = frozenset(
    (time.perf_counter, time.perf_counter_ns, time.monotonic, time.monotonic_ns,
     time.time, time.time_ns, time.process_time)
)


def clock_reads(call, *args, **kwargs):
    """(``call(*args, **kwargs)``, clock reads ``repro`` code made inside it).

    Counted by a profile hook rather than by patching ``time``: a clock
    bound at import (a default argument, a module alias) is the same
    object, so the hook sees it and a patched module attribute does not.
    Reads by other code are not counted: a garbage collection inside the
    call runs whatever ``gc.callbacks`` holds (hypothesis times them).
    """
    reads = [0]

    def hook(frame, event, arg):
        if (
            event == "c_call"
            and arg in CLOCKS
            and frame.f_globals.get("__name__", "").startswith("repro.")
        ):
            reads[0] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = call(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return result, reads[0]


#: Collector updates of a query that probes nothing: the backend's call
#: counter and the query-cost histogram (COLT; the bandit has no such
#: histogram).  Every other per-query total is a plain add its family
#: reads at snapshot time.
COLT_PLAIN_QUERY_UPDATES = 2
BANDIT_PLAIN_QUERY_UPDATES = 1
#: Per what-if probe, COLT: probes_total, whatif_spent_total and at most
#: two backend pricing calls.  Per reward probe, bandit: one pricing call.
COLT_UPDATES_PER_PROBE = 4
BANDIT_UPDATES_PER_PROBE = 1


class TestPerQueryUpdateBudget:
    """The overhead bound that can fail: counts, not a timing ratio."""

    @pytest.mark.parametrize(
        "engine, plain, per_probe",
        [
            (ColtTuner, COLT_PLAIN_QUERY_UPDATES, COLT_UPDATES_PER_PROBE),
            (BanditTuner, BANDIT_PLAIN_QUERY_UPDATES, BANDIT_UPDATES_PER_PROBE),
        ],
        ids=["colt", "bandit"],
    )
    def test_updates_per_query_are_bounded(
        self, small_catalog, engine, plain, per_probe
    ):
        registry = CountingRegistry()
        tuner = engine(
            small_catalog, ColtConfig(storage_budget_pages=6000.0), registry=registry
        )
        queries = [eq_query(7), day_query(8100), eq_query(9)]
        plain_seen = probing_seen = 0
        for i in range(400):
            query = queries[i % len(queries)]  # the same objects: retained hits
            registry.updates.clear()
            outcome, reads = clock_reads(tuner.process_query, query)
            if outcome.epoch_ended:
                continue  # the close is the boundary's own budget
            assert len(registry.updates) <= plain + per_probe * outcome.whatif_calls, (
                i, registry.updates
            )
            if outcome.whatif_calls == 0:
                assert reads == 0, (i, reads)  # no per-query wall-clock timing
            plain_seen += outcome.whatif_calls == 0
            probing_seen += outcome.whatif_calls > 0
        assert plain_seen > 100 and probing_seen > 10

    def test_raising_query_propagates_and_is_not_counted(self, small_catalog):
        tuner = _tuner(small_catalog)
        _run(tuner, 3)

        def refuse(query):
            raise RuntimeError("backend down")

        tuner.whatif.begin_query = refuse
        with pytest.raises(RuntimeError):
            tuner.process_query(eq_query(1))
        assert tuner.metrics.get("colt_queries_total").value() == 3
