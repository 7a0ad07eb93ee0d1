"""Tests for the fleet routing policies."""

import pytest

from repro.core.config import ColtConfig
from repro.fleet.replica import TunerReplica
from repro.fleet.router import (
    MIN_PROBE_BUDGET,
    AffinityRouter,
    CostBasedRouter,
    RoundRobinRouter,
    make_router,
)

from tests.fleet.workloads import (
    build_small_catalog,
    day_query,
    eq_query,
    score_query,
)


@pytest.fixture(scope="module")
def catalog():
    return build_small_catalog()


class TestRoundRobin:
    def test_cycles_over_replicas(self, catalog):
        router = RoundRobinRouter(3)
        picks = [router.route(eq_query(i)).replica_id for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_drained(self, catalog):
        router = RoundRobinRouter(3)
        router.set_drained([1])
        picks = {router.route(eq_query(i)).replica_id for i in range(6)}
        assert picks == {0, 2}

    def test_all_drained_falls_back_to_everyone(self, catalog):
        router = RoundRobinRouter(2)
        router.set_drained([0, 1])
        assert router.route(eq_query(1)).replica_id in (0, 1)

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            RoundRobinRouter(0)


class TestAffinity:
    def test_same_shape_same_replica(self, catalog):
        router = AffinityRouter(3, catalog)
        picks = {router.route(eq_query(v)).replica_id for v in range(10)}
        assert len(picks) == 1  # one cluster -> one replica

    def test_distinct_shapes_spread_by_load(self, catalog):
        router = AffinityRouter(3, catalog)
        a = router.route(eq_query(1)).replica_id
        b = router.route(day_query(8000)).replica_id
        c = router.route(score_query(5)).replica_id
        assert len({a, b, c}) == 3  # least-loaded assignment spreads keys

    def test_drained_assignment_moves_and_sticks(self, catalog):
        router = AffinityRouter(2, catalog)
        home = router.route(eq_query(1)).replica_id
        router.set_drained([home])
        moved = router.route(eq_query(2)).replica_id
        assert moved != home
        assert router.moves == 1
        # The new assignment is sticky after the drain ends.
        router.set_drained([])
        assert router.route(eq_query(3)).replica_id == moved

    def test_reassign_from_bulk_moves(self, catalog):
        router = AffinityRouter(2, catalog)
        victims = {router.route(q).replica_id for q in (eq_query(1), day_query(8000))}
        assert victims == {0, 1}
        router.set_drained([0])
        moved = router.reassign_from([0])
        assert moved == 1
        assert all(r != 0 for r in router.assignments.values())

    def test_client_mode_keys_on_client_id(self, catalog):
        router = AffinityRouter(2, catalog, by="client")
        a = router.route(eq_query(1), client_id=0).replica_id
        b = router.route(day_query(8000), client_id=0).replica_id
        assert a == b  # different clusters, same client
        c = router.route(eq_query(2), client_id=1).replica_id
        assert c != a  # second client balances onto the other replica

    def test_client_mode_untagged_falls_back_to_cluster(self, catalog):
        router = AffinityRouter(2, catalog, by="client")
        a = router.route(eq_query(1)).replica_id
        assert router.route(eq_query(2)).replica_id == a

    def test_rejects_unknown_key_mode(self, catalog):
        with pytest.raises(ValueError):
            AffinityRouter(2, catalog, by="table")


class ProbeCounter:
    """Wrap a replica so every what-if probe against it is counted."""

    def __init__(self, replica):
        self._replica = replica
        self.probes = 0

    def __getattr__(self, name):
        return getattr(self._replica, name)

    def probe_cost(self, query):
        self.probes += 1
        return self._replica.probe_cost(query)


def make_cost_fleet(n=2, probe_budget=30):
    catalog = build_small_catalog()
    replicas = [
        TunerReplica(i, build_small_catalog(), ColtConfig()) for i in range(n)
    ]
    router = CostBasedRouter(n, catalog, probe_budget=probe_budget)
    router.bind(replicas)
    return router, replicas


class TestCostBased:
    def test_requires_bind(self):
        router = CostBasedRouter(2, build_small_catalog())
        with pytest.raises(RuntimeError):
            router.route(eq_query(1))

    def test_bind_checks_size(self):
        router, replicas = make_cost_fleet(2)
        with pytest.raises(ValueError):
            router.bind(replicas[:1])

    def test_routes_to_cheapest_replica(self):
        router, replicas = make_cost_fleet(2)
        ix = replicas[1].catalog.index_for("events", "user_id")
        replicas[1].catalog.materialize_index(ix)
        route = router.route(eq_query(1))
        assert route.replica_id == 1
        assert route.probes == 2

    def test_cached_routes_spend_no_probes(self):
        router, replicas = make_cost_fleet(2)
        first = router.route(eq_query(1))
        assert first.probes == 2
        again = router.route(eq_query(2))
        assert again.replica_id == first.replica_id
        assert again.probes == 0
        assert router.probes_used == 2

    def test_config_change_invalidates_cache(self):
        router, replicas = make_cost_fleet(2)
        first = router.route(eq_query(1))
        assert first.replica_id == 0  # tie broken by id
        ix = replicas[1].catalog.index_for("events", "user_id")
        replicas[1].catalog.materialize_index(ix)
        replicas[1].tuner.dashboard.reconfigurations += 1  # what a close logs
        rerouted = router.route(eq_query(2))
        assert rerouted.probes == 2  # re-probed after the version bump
        assert rerouted.replica_id == 1
        assert router.route_changes == 1

    def test_budget_exhaustion_falls_back_to_cache(self):
        router, replicas = make_cost_fleet(2, probe_budget=3)
        router.route(eq_query(1))  # spends 2 of 3
        # A new shape would need 2 more probes: over budget, so the
        # router balances blindly without probing.
        route = router.route(day_query(8000))
        assert route.probes == 0
        # The cached shape still routes consistently without probes.
        assert router.route(eq_query(2)).probes == 0

    def test_drained_replica_never_probed_mid_epoch(self):
        # Regression: a drain installed between roll_epoch boundaries
        # must take effect immediately -- no probe may land on a
        # drained replica while the epoch is still open.
        router, replicas = make_cost_fleet(2)
        counters = [ProbeCounter(r) for r in replicas]
        router.bind(counters)
        router.set_drained([1])
        route = router.route(eq_query(1))
        assert route.replica_id == 0
        assert route.probes == 1
        assert counters[1].probes == 0

    def test_all_drained_routes_blind_without_probes(self):
        # Regression: with the whole fleet drained the router used to
        # fall back to probing every (drained) replica.  Degraded
        # service still routes, but blind and probe-free.
        router, replicas = make_cost_fleet(2)
        counters = [ProbeCounter(r) for r in replicas]
        router.bind(counters)
        router.set_drained([0, 1])
        route = router.route(eq_query(1))
        assert route.replica_id in (0, 1)
        assert route.probes == 0
        assert router.probes_used == 0
        assert all(c.probes == 0 for c in counters)

    def test_probe_budget_self_regulates(self):
        router, replicas = make_cost_fleet(2, probe_budget=40)
        router.route(eq_query(1))
        router.roll_epoch()  # no route changes: decay
        assert router.probe_budget == 20
        for _ in range(3):
            router.roll_epoch()
        assert router.probe_budget >= MIN_PROBE_BUDGET
        # A route change restores the full grant.
        ix = replicas[1].catalog.index_for("events", "user_id")
        replicas[1].catalog.materialize_index(ix)
        replicas[1].tuner.dashboard.reconfigurations += 1  # what a close logs
        router.route(eq_query(2))
        router.roll_epoch()
        assert router.probe_budget == 40


class TestFactory:
    @pytest.mark.parametrize(
        "policy,name",
        [
            ("round-robin", "round-robin"),
            ("affinity", "affinity"),
            ("client", "client"),
            ("cost", "cost"),
        ],
    )
    def test_known_policies(self, catalog, policy, name):
        assert make_router(policy, 3, catalog).name == name

    def test_unknown_policy(self, catalog):
        with pytest.raises(ValueError):
            make_router("random", 3, catalog)
