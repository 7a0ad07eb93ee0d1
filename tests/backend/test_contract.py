"""Backend-protocol conformance suite.

Every :class:`~repro.backend.base.Backend` the tuning stack can run on
must satisfy the same observable contract: more indexes never price a
query worse, and pricing depends only on the *configuration* -- not on
whether an index happens to be hypothetical or materialized.  The suite is parametrized
over the local engine and the trace replayer; the differential class at
the bottom proves the two produce bit-identical tuning decisions on two
shifting workloads, one of them the paper's Figure-4 phases.
"""

import random

import pytest

from repro.backend.base import Backend, BackendError, TraceMissError
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
from repro.workload import build_catalog, shifting_workload
from repro.workload.experiments import phase_distributions

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
            live.optimize(query, config=config)
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
        b.optimize(eq_query(7), config=frozenset())
        b.optimize(day_query(8100), config=frozenset())
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
        bare = b.optimize(query, config=frozenset()).cost
        user = catalog.index_for("events", "user_id")
        catalog.materialize_index(user)
        assert b.optimize(query, config=frozenset()).cost == bare
        with_user = b.optimize(query, config=frozenset({user})).cost
        assert with_user < bare
        whatif = WhatIfOptimizer(b)
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


class TestProtocol:
    def test_the_public_surface_is_six_members(self):
        public = {n for n in dir(Backend) if not n.startswith("_")}
        public |= set(Backend.__annotations__)
        assert public == {
            "name",
            "catalog",
            "optimize",
            "current_config",
            "begin_query",
            "bind_registry",
        }

    def test_current_config_is_the_materialized_set(self, backend):
        catalog = backend.catalog
        user = catalog.index_for("events", "user_id")
        assert backend.current_config() == frozenset()
        catalog.materialize_index(user)
        assert backend.current_config() == frozenset({user})
        catalog.drop_index(user)
        assert backend.current_config() == frozenset()

    def test_probes_price_on_the_session_cache(self, backend):
        catalog = backend.catalog
        user = catalog.index_for("events", "user_id")
        day = catalog.index_for("events", "day")
        catalog.materialize_index(user)
        whatif = WhatIfOptimizer(backend)
        session = whatif.begin_query(eq_query(7))
        caches = []
        real = backend.optimize

        def spy(query, config=None, cache=None):
            caches.append(cache)
            return real(query, config=config, cache=cache)

        backend.optimize = spy
        whatif.what_if_optimize(session, [user, day])  # reverse, then forward
        assert len(caches) == 2
        assert all(cache is session.cache for cache in caches)


class TestCostMonotonicity:
    def test_relevant_index_never_hurts(self, backend):
        catalog = backend.catalog
        user = catalog.index_for("events", "user_id")
        q = eq_query(7)
        assert backend.optimize(q, config=frozenset({user})).cost <= backend.optimize(
            q, config=frozenset()
        ).cost

    def test_superset_config_never_hurts(self, backend):
        catalog = backend.catalog
        user = catalog.index_for("events", "user_id")
        day = catalog.index_for("events", "day")
        score = catalog.index_for("users", "score")
        for q in probe_queries():
            lo = backend.optimize(q, config=frozenset()).cost
            hi = backend.optimize(q, config=frozenset({user, day, score})).cost
            assert hi <= lo

    def test_irrelevant_index_changes_nothing(self, backend):
        catalog = backend.catalog
        score = catalog.index_for("users", "score")
        q = eq_query(7)  # touches only events
        assert backend.optimize(q, config=frozenset({score})).cost == backend.optimize(
            q, config=frozenset()
        ).cost


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
        with_hyp = backend.optimize(q, config=frozenset({user})).cost
        without_hyp = backend.optimize(q, config=frozenset()).cost
        catalog.materialize_index(user)
        try:
            assert backend.optimize(q, config=frozenset({user})).cost == with_hyp
            assert backend.optimize(q, config=frozenset()).cost == without_hyp
        finally:
            catalog.drop_index(user)

    def test_forward_and_reverse_gains_agree(self, backend):
        catalog = backend.catalog
        user = catalog.index_for("events", "user_id")
        q = eq_query(7)
        forward = backend.optimize(q, config=frozenset()).cost - backend.optimize(
            q, config=frozenset({user})
        ).cost
        catalog.materialize_index(user)
        try:
            reverse = backend.optimize(q, config=frozenset()).cost - backend.optimize(
                q, config=frozenset({user})
            ).cost
        finally:
            catalog.drop_index(user)
        assert forward == reverse
        assert forward > 0


class TestTraceBackendSpecifics:
    def test_miss_is_a_hard_backend_error(self):
        backend = TraceBackend(build_small_catalog(), CostTrace())
        with pytest.raises(TraceMissError):
            backend.optimize(eq_query(7))
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
        assert result.indexes_used == result.plan.indexes_used() == {user}
        assert backend.replayed > 0

    def test_round_trips_through_json_files(self, tmp_path):
        catalog = build_small_catalog()
        recorder = CostTraceRecorder()
        live = LocalBackend(catalog, recorder=recorder)
        q = eq_query(7)
        cost = live.optimize(q, config=frozenset()).cost
        path = tmp_path / "trace.json"
        recorder.trace.save(path)
        replay = TraceBackend(build_small_catalog(), CostTrace.load(path))
        assert replay.optimize(q, config=frozenset()).cost == cost

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


def _figure4_workload(catalog):
    """240 queries of the paper's first two Figure-4 phases (seed 0)."""
    phases = phase_distributions()[:2]
    workload = shifting_workload(
        phases, catalog, phase_length=120, transition=10, seed=0
    )
    return list(workload.queries)[:240]


#: (catalog builder, workload builder, config) per differential input.
DIFFERENTIAL_RUNS = {
    "small_shift": (
        build_small_catalog,
        lambda catalog: _shifting_workload(),
        ColtConfig(
            epoch_length=20,
            storage_budget_pages=6000.0,
            min_history_epochs=2,
        ),
    ),
    # Two phases force hibernation, wake-up and re-tuning on the paper
    # catalog: the decision sequence replay must reproduce.
    "paper_figure4": (
        build_catalog,
        _figure4_workload,
        ColtConfig(epoch_length=20, storage_budget_pages=6000.0),
    ),
}


class TestCrossBackendDifferential:
    """Live pricing vs. trace replay must make *bit-identical* decisions."""

    @pytest.mark.parametrize("run", sorted(DIFFERENTIAL_RUNS))
    def test_replay_reproduces_live_run_exactly(self, run):
        build, make_workload, config = DIFFERENTIAL_RUNS[run]

        live_catalog = build()
        workload = make_workload(live_catalog)
        recorder = CostTraceRecorder()
        live = trace_run(
            live_catalog,
            workload,
            config,
            backend=LocalBackend(live_catalog, recorder=recorder),
        )

        replay_catalog = build()
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
            assert a.total_cost == b.total_cost
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
