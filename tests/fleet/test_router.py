"""Tests for the fleet routing policies."""

import pytest

from repro.fleet.router import AffinityRouter, RoundRobinRouter, make_router

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
        picks = [router.route(eq_query(i)) for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_drained(self, catalog):
        router = RoundRobinRouter(3)
        router.set_drained([1])
        picks = {router.route(eq_query(i)) for i in range(6)}
        assert picks == {0, 2}

    def test_all_drained_falls_back_to_everyone(self, catalog):
        router = RoundRobinRouter(2)
        router.set_drained([0, 1])
        assert router.route(eq_query(1)) in (0, 1)

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            RoundRobinRouter(0)


class TestAffinity:
    def test_same_shape_same_replica(self, catalog):
        router = AffinityRouter(3, catalog)
        picks = {router.route(eq_query(v)) for v in range(10)}
        assert len(picks) == 1  # one cluster -> one replica

    def test_distinct_shapes_spread_by_load(self, catalog):
        router = AffinityRouter(3, catalog)
        a = router.route(eq_query(1))
        b = router.route(day_query(8000))
        c = router.route(score_query(5))
        assert len({a, b, c}) == 3  # least-loaded assignment spreads keys

    def test_drained_assignment_moves_and_sticks(self, catalog):
        router = AffinityRouter(2, catalog)
        home = router.route(eq_query(1))
        router.set_drained([home])
        moved = router.route(eq_query(2))
        assert moved != home
        assert router.moves == 1
        # The new assignment is sticky after the drain ends.
        router.set_drained([])
        assert router.route(eq_query(3)) == moved

    def test_reassign_from_bulk_moves(self, catalog):
        router = AffinityRouter(2, catalog)
        victims = {router.route(q) for q in (eq_query(1), day_query(8000))}
        assert victims == {0, 1}
        router.set_drained([0])
        moved = router.reassign_from([0])
        assert moved == 1
        assert all(r != 0 for r in router.assignments.values())

    def test_client_mode_keys_on_client_id(self, catalog):
        router = AffinityRouter(2, catalog, by="client")
        a = router.route(eq_query(1), client_id=0)
        b = router.route(day_query(8000), client_id=0)
        assert a == b  # different clusters, same client
        c = router.route(eq_query(2), client_id=1)
        assert c != a  # second client balances onto the other replica

    def test_client_mode_untagged_falls_back_to_cluster(self, catalog):
        router = AffinityRouter(2, catalog, by="client")
        a = router.route(eq_query(1))
        assert router.route(eq_query(2)) == a

    def test_rejects_unknown_key_mode(self, catalog):
        with pytest.raises(ValueError):
            AffinityRouter(2, catalog, by="table")


class TestFactory:
    @pytest.mark.parametrize(
        "policy,name",
        [
            ("round-robin", "round-robin"),
            ("affinity", "affinity"),
            ("client", "client"),
        ],
    )
    def test_known_policies(self, catalog, policy, name):
        assert make_router(policy, 3, catalog).name == name

    @pytest.mark.parametrize("policy", ["round-robin", "affinity", "client"])
    def test_route_returns_the_replica_id_it_charged(self, catalog, policy):
        # ``route`` hands back the bare replica id, and that id is the
        # one whose load it counted.
        router = make_router(policy, 3, catalog)
        makers = [eq_query, day_query, score_query]
        for i in range(12):
            before = list(router.load)
            choice = router.route(makers[i % 3](i + 1), client_id=i % 4)
            assert type(choice) is int and 0 <= choice < 3
            before[choice] += 1
            assert router.load == before
        assert sum(router.load) == 12

    def test_unknown_policy(self, catalog):
        # "cost" (what-if probe routing) was retired: it is unknown now.
        for policy in ("random", "cost"):
            with pytest.raises(ValueError, match="unknown routing policy"):
                make_router(policy, 3, catalog)
