"""Backend-protocol conformance suite.

Every :class:`~repro.backend.base.Backend` the tuning stack can run on
must satisfy the same observable contract: more indexes never price a
query worse, hypothetical indexes are session-local and idempotent,
stats tokens change on every statistics-affecting catalog mutation, and
pricing depends only on the *configuration* -- not on whether an index
happens to be hypothetical or materialized.  The suite is parametrized
over the local engine and the trace replayer; the differential class at
the bottom proves the two produce bit-identical tuning decisions on a
shifting workload.
"""

import random

import pytest

from repro.backend.base import BackendError, TraceMissError
from repro.backend.local import LocalBackend
from repro.backend.trace import (
    CostTrace,
    CostTraceRecorder,
    TraceBackend,
    trace_key,
)
from repro.bench.tracing import trace_run
from repro.core.colt import ColtTuner
from repro.core.config import ColtConfig
from repro.guardrails.manager import GuardrailManager
from repro.obs.registry import MetricsRegistry
from repro.optimizer.whatif import WhatIfOptimizer

from tests.fleet.workloads import (
    build_small_catalog,
    day_query,
    eq_query,
    score_query,
)

BACKENDS = ("local", "trace")


def probe_queries():
    """The fixed query set every conformance probe draws from."""
    return [eq_query(7), eq_query(4242), day_query(8100), score_query(17)]


def probe_configs(catalog):
    """Every index configuration the conformance tests price under."""
    user = catalog.index_for("events", "user_id")
    day = catalog.index_for("events", "day")
    score = catalog.index_for("users", "score")
    return [
        frozenset(),
        frozenset({user}),
        frozenset({day}),
        frozenset({score}),
        frozenset({user, day}),
        frozenset({user, day, score}),
    ]


def make_backend(kind, catalog):
    """Build a conformant backend of ``kind`` over ``catalog``.

    The trace backend is seeded by recording the full query x config
    probe grid through a live backend on a structurally identical
    shadow catalog -- exactly the record/replay workflow the CLI
    exposes via ``--record-trace`` / ``--backend trace``.
    """
    if kind == "local":
        return LocalBackend(catalog)
    shadow = build_small_catalog()
    recorder = CostTraceRecorder()
    live = LocalBackend(shadow, recorder=recorder)
    for query in probe_queries():
        for config in probe_configs(shadow):
            live.get_cost(query, config=config)
    return TraceBackend(catalog, recorder.trace)


@pytest.fixture(params=BACKENDS)
def backend(request):
    return make_backend(request.param, build_small_catalog())


class TestCapabilities:
    @pytest.mark.parametrize("kind", BACKENDS)
    def test_name_matches_kind(self, kind):
        b = make_backend(kind, build_small_catalog())
        assert b.name == kind

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_pricing_counter_is_labelled_with_the_name(self, kind):
        # The name is the ``backend`` label of the pricing-call counter.
        b = make_backend(kind, build_small_catalog())
        registry = MetricsRegistry()
        b.bind_registry(registry)
        b.get_cost(eq_query(7), config=frozenset())
        b.get_cost(day_query(8100), config=frozenset())
        counter = registry.get("backend_optimize_calls_total")
        assert counter.value(backend=kind) == 2
        assert counter.samples() == [{"labels": {"backend": kind}, "value": 2.0}]

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_reverse_probe_prices_without_a_materialized_index(self, kind):
        # Every backend answers the paper's reverse what-if: it prices a
        # query as if a built index were absent, and a reverse probe
        # yields a gain instead of a probe error.
        catalog = build_small_catalog()
        b = make_backend(kind, catalog)
        query = eq_query(7)
        bare = b.get_cost(query, config=frozenset())
        user = catalog.index_for("events", "user_id")
        catalog.materialize_index(user)
        assert b.get_cost(query, config=frozenset()) == bare
        with_user = b.get_cost(query, config=frozenset({user}))
        assert with_user < bare
        whatif = WhatIfOptimizer(backend=b)
        session = whatif.begin_query(query)
        assert whatif.what_if_optimize(session, [user]) == {user: bare - with_user}

    @pytest.mark.parametrize("kind", BACKENDS)
    def test_guardrail_verification_probes_every_backend(self, kind):
        # Verification is a reverse probe too: it runs on every backend.
        catalog = build_small_catalog()
        b = make_backend(kind, catalog)
        user = catalog.index_for("events", "user_id")
        catalog.materialize_index(user)
        tuner = ColtTuner(catalog, backend=b, guardrails=GuardrailManager())
        session = tuner.whatif.begin_query(eq_query(7))
        assert session.base.indexes_used == {user}
        calls, charge = tuner.guardrails.observe_query(session, {user})
        assert calls == 1 and charge >= 0.0


class TestCostMonotonicity:
    def test_relevant_index_never_hurts(self, backend):
        catalog = backend.catalog
        user = catalog.index_for("events", "user_id")
        q = eq_query(7)
        assert backend.get_cost(q, config=frozenset({user})) <= backend.get_cost(
            q, config=frozenset()
        )

    def test_superset_config_never_hurts(self, backend):
        catalog = backend.catalog
        user = catalog.index_for("events", "user_id")
        day = catalog.index_for("events", "day")
        score = catalog.index_for("users", "score")
        for q in probe_queries():
            lo = backend.get_cost(q, config=frozenset())
            hi = backend.get_cost(q, config=frozenset({user, day, score}))
            assert hi <= lo

    def test_irrelevant_index_changes_nothing(self, backend):
        catalog = backend.catalog
        score = catalog.index_for("users", "score")
        q = eq_query(7)  # touches only events
        assert backend.get_cost(q, config=frozenset({score})) == backend.get_cost(
            q, config=frozenset()
        )


class TestSimulateDropIdempotence:
    def test_simulate_is_idempotent(self, backend):
        user = backend.catalog.index_for("events", "user_id")
        backend.simulate_index(user)
        backend.simulate_index(user)
        assert backend.simulated_indexes() == frozenset({user})
        assert user in backend.current_config()

    def test_drop_is_idempotent(self, backend):
        user = backend.catalog.index_for("events", "user_id")
        backend.simulate_index(user)
        backend.drop_simulated_index(user)
        backend.drop_simulated_index(user)
        assert backend.simulated_indexes() == frozenset()
        assert user not in backend.current_config()

    def test_drop_of_never_simulated_index_is_a_no_op(self, backend):
        day = backend.catalog.index_for("events", "day")
        backend.drop_simulated_index(day)
        assert backend.simulated_indexes() == frozenset()

    def test_simulated_index_prices_into_default_config(self, backend):
        user = backend.catalog.index_for("events", "user_id")
        q = eq_query(7)
        explicit = backend.get_cost(q, config=frozenset({user}))
        backend.simulate_index(user)
        try:
            assert backend.get_cost(q) == explicit
        finally:
            backend.drop_simulated_index(user)


class TestStatsTokenInvalidation:
    def test_row_delta_changes_token(self, backend):
        before = backend.stats_token("events")
        backend.catalog.apply_row_delta("events", 1000)
        assert backend.stats_token("events") != before

    def test_token_does_not_revert_when_row_count_reverts(self, backend):
        # Truncate-refill: the row count round-trips back to its old
        # value, but the version component keeps the token fresh.
        before = backend.stats_token("events")
        backend.catalog.apply_row_delta("events", 1000)
        backend.catalog.apply_row_delta("events", -1000)
        assert backend.stats_token("events") != before

    def test_set_row_count_changes_token(self, backend):
        before = backend.stats_token("users")
        backend.catalog.set_row_count("users", 10_000)  # same count
        assert backend.stats_token("users") != before

    def test_refresh_stats_changes_token(self, backend):
        before = backend.stats_token("events")
        backend.refresh_stats("events")
        assert backend.stats_token("events") != before

    def test_tokens_are_per_table(self, backend):
        users_before = backend.stats_token("users")
        backend.catalog.apply_row_delta("events", 500)
        assert backend.stats_token("users") == users_before

    def test_materialization_leaves_the_token(self, backend):
        # The index set is not statistics: the catalog's generation
        # tracks it, and a plan cache keys it inside.
        catalog = backend.catalog
        before = {t: backend.stats_token(t) for t in ("events", "users")}
        user = catalog.index_for("events", "user_id")
        catalog.materialize_index(user)
        assert {t: backend.stats_token(t) for t in before} == before
        catalog.drop_index(user)
        catalog.drop_index(user)  # absent: a no-op
        assert {t: backend.stats_token(t) for t in before} == before

    def test_simulation_leaves_the_token(self, backend):
        before = backend.stats_token("events")
        day = backend.catalog.index_for("events", "day")
        backend.simulate_index(day)
        assert backend.stats_token("events") == before
        backend.drop_simulated_index(day)
        assert backend.stats_token("events") == before


class TestReverseWhatIfConsistency:
    """Pricing depends on the configuration, not on materialization.

    QueryGain's reverse direction (probe ``M - {I}`` for a materialized
    ``I``) is only sound if the cost of a configuration is the same
    whether its indexes are hypothetical or real -- the invariant this
    class pins on both backends.
    """

    def test_cost_is_invariant_under_materialization(self, backend):
        catalog = backend.catalog
        user = catalog.index_for("events", "user_id")
        q = eq_query(7)
        with_hyp = backend.get_cost(q, config=frozenset({user}))
        without_hyp = backend.get_cost(q, config=frozenset())
        catalog.materialize_index(user)
        try:
            assert backend.get_cost(q, config=frozenset({user})) == with_hyp
            assert backend.get_cost(q, config=frozenset()) == without_hyp
        finally:
            catalog.drop_index(user)

    def test_forward_and_reverse_gains_agree(self, backend):
        catalog = backend.catalog
        user = catalog.index_for("events", "user_id")
        q = eq_query(7)
        forward = backend.get_cost(q, config=frozenset()) - backend.get_cost(
            q, config=frozenset({user})
        )
        catalog.materialize_index(user)
        try:
            reverse = backend.get_cost(q, config=frozenset()) - backend.get_cost(
                q, config=frozenset({user})
            )
        finally:
            catalog.drop_index(user)
        assert forward == reverse
        assert forward > 0


class TestTraceBackendSpecifics:
    def test_miss_is_a_hard_backend_error(self):
        backend = TraceBackend(build_small_catalog(), CostTrace())
        with pytest.raises(TraceMissError):
            backend.get_cost(eq_query(7))
        assert isinstance(TraceMissError("x"), BackendError)

    def test_key_restricts_to_relevant_config(self):
        catalog = build_small_catalog()
        user = catalog.index_for("events", "user_id")
        score = catalog.index_for("users", "score")
        q = eq_query(7)
        assert trace_key(q, frozenset({user})) == trace_key(
            q, frozenset({user, score})
        )
        assert trace_key(q, frozenset({user})) != trace_key(q, frozenset())

    def test_replay_restores_indexes_used(self):
        catalog = build_small_catalog()
        backend = make_backend("trace", catalog)
        user = catalog.index_for("events", "user_id")
        result = backend.optimize(eq_query(7), config=frozenset({user}))
        assert user in result.plan.indexes_used()
        assert backend.replayed > 0

    def test_round_trips_through_json_files(self, tmp_path):
        catalog = build_small_catalog()
        recorder = CostTraceRecorder()
        live = LocalBackend(catalog, recorder=recorder)
        q = eq_query(7)
        cost = live.get_cost(q, config=frozenset())
        path = tmp_path / "trace.json"
        recorder.trace.save(path)
        replay = TraceBackend(build_small_catalog(), CostTrace.load(path))
        assert replay.get_cost(q, config=frozenset()) == cost

    def test_rejects_foreign_payloads(self):
        with pytest.raises(ValueError):
            CostTrace.from_json({"format": "something-else"})
        with pytest.raises(ValueError):
            CostTrace.from_json({"format": "repro-cost-trace", "version": 99})


def _shifting_workload():
    """120 queries shifting from the user_id cluster to the day cluster."""
    rng = random.Random(11)
    queries = []
    for i in range(120):
        if i < 60:
            queries.append(eq_query(rng.randint(1, 10_000)))
        else:
            queries.append(day_query(8000 + rng.randint(0, 1900)))
    return queries


class TestCrossBackendDifferential:
    """Live pricing vs. trace replay must make *bit-identical* decisions."""

    def test_replay_reproduces_live_run_exactly(self):
        config = ColtConfig(
            epoch_length=20,
            storage_budget_pages=6000.0,
            min_history_epochs=2,
        )
        workload = _shifting_workload()

        live_catalog = build_small_catalog()
        recorder = CostTraceRecorder()
        live = trace_run(
            live_catalog,
            workload,
            config,
            backend=LocalBackend(live_catalog, recorder=recorder),
        )

        replay_catalog = build_small_catalog()
        replay_backend = TraceBackend(replay_catalog, recorder.trace)
        replay = trace_run(
            replay_catalog, workload, config, backend=replay_backend
        )

        assert replay_backend.replayed > 0
        assert len(live.epochs) == len(replay.epochs) > 0
        for a, b in zip(live.epochs, replay.epochs):
            assert a.added == b.added
            assert a.dropped == b.dropped
            assert a.materialized == b.materialized
            assert a.hot == b.hot
            assert a.whatif_used == b.whatif_used
            assert a.budget_granted == b.budget_granted
            assert a.execution_cost == b.execution_cost  # exact, not approx
        assert live.to_json() == replay.to_json()

    def test_replay_with_wrong_workload_fails_loudly(self):
        config = ColtConfig(epoch_length=20, storage_budget_pages=6000.0)
        workload = _shifting_workload()
        live_catalog = build_small_catalog()
        recorder = CostTraceRecorder()
        trace_run(
            live_catalog,
            workload,
            config,
            backend=LocalBackend(live_catalog, recorder=recorder),
        )
        replay_catalog = build_small_catalog()
        foreign = [score_query(v) for v in range(40)]
        with pytest.raises(TraceMissError):
            trace_run(
                replay_catalog,
                foreign,
                config,
                backend=TraceBackend(replay_catalog, recorder.trace),
            )
