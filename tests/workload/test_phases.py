"""Tests for workload builders (stable / shifting / noisy)."""

import pytest

from repro.workload.datagen import build_catalog
from repro.workload.experiments import noise_distributions, phase_distributions, stable_distribution
from repro.workload.phases import (
    multi_client_shifting_workload,
    multi_client_workload,
    noisy_workload,
    shifting_workload,
    stable_workload,
)


@pytest.fixture(scope="module")
def catalog():
    return build_catalog()


class TestStable:
    def test_length_and_labels(self, catalog):
        wl = stable_workload(stable_distribution(), 120, catalog, seed=1)
        assert len(wl) == 120
        assert set(wl.source) == {"stable"}
        assert wl.phase_boundaries() == []

    def test_deterministic(self, catalog):
        a = stable_workload(stable_distribution(), 30, catalog, seed=9)
        b = stable_workload(stable_distribution(), 30, catalog, seed=9)
        assert [q.filters[0].column for q in a.queries] == [
            q.filters[0].column for q in b.queries
        ]

    @pytest.mark.parametrize("length", [0, -3])
    def test_rejects_a_length_below_one(self, catalog, length):
        with pytest.raises(ValueError, match="length must be positive"):
            stable_workload(stable_distribution(), length, catalog)


class TestShifting:
    def test_paper_dimensions(self, catalog):
        wl = shifting_workload(
            phase_distributions(), catalog, phase_length=300, transition=50
        )
        # 4 x 300 + 3 x 50 = 1350 queries, as in §6.2.
        assert len(wl) == 1350

    def test_transition_mixes_distributions(self, catalog):
        wl = shifting_workload(
            phase_distributions(), catalog, phase_length=100, transition=40, seed=3
        )
        # Within a transition window both sources should appear.
        window = wl.source[100:140]
        assert "phase1" in window and "phase2" in window

    def test_phases_in_order(self, catalog):
        wl = shifting_workload(
            phase_distributions(), catalog, phase_length=50, transition=0
        )
        assert wl.source[0] == "phase1"
        assert wl.source[-1] == "phase4"
        assert len(wl) == 200

    @pytest.mark.parametrize(
        "phase_length, transition, match",
        [
            (0, 0, "phase length must be positive"),
            (-5, 10, "phase length must be positive"),
            (50, -1, "transition must be non-negative"),
        ],
    )
    def test_rejects_a_bad_size(self, catalog, phase_length, transition, match):
        with pytest.raises(ValueError, match=match):
            shifting_workload(
                phase_distributions(),
                catalog,
                phase_length=phase_length,
                transition=transition,
            )


class TestNoisy:
    def test_noise_fraction(self, catalog):
        q1, q2 = noise_distributions()
        wl = noisy_workload(q1, q2, catalog, burst_length=40)
        noise = sum(1 for s in wl.source if s == "q2_noise")
        assert noise / len(wl) == pytest.approx(0.2, abs=0.02)

    def test_warmup_is_noise_free(self, catalog):
        q1, q2 = noise_distributions()
        wl = noisy_workload(q1, q2, catalog, burst_length=30, warmup=100)
        assert all(s == "q1_base" for s in wl.source[:100])

    def test_min_two_bursts(self, catalog):
        q1, q2 = noise_distributions()
        wl = noisy_workload(q1, q2, catalog, burst_length=80)
        runs = _noise_runs(wl.source)
        assert len(runs) >= 2
        assert all(r == 80 for r in runs)

    def test_many_bursts_for_short_lengths(self, catalog):
        q1, q2 = noise_distributions()
        wl = noisy_workload(q1, q2, catalog, burst_length=20)
        assert len(_noise_runs(wl.source)) >= 5
        assert len(wl) >= 500

    def test_rejects_bad_fraction(self, catalog):
        q1, q2 = noise_distributions()
        with pytest.raises(ValueError):
            noisy_workload(q1, q2, catalog, burst_length=10, noise_fraction=1.5)

    @pytest.mark.parametrize("burst", [0, -5])
    def test_rejects_bad_burst_length(self, catalog, burst):
        q1, q2 = noise_distributions()
        with pytest.raises(ValueError, match="burst length"):
            noisy_workload(q1, q2, catalog, burst_length=burst)


class TestMultiClient:
    def test_all_queries_present(self, catalog):
        a = stable_workload(stable_distribution(), 30, catalog, seed=1)
        b = stable_workload(stable_distribution(), 50, catalog, seed=2)
        merged = multi_client_workload([a, b], seed=0)
        assert len(merged) == 80

    def test_per_client_order_preserved(self, catalog):
        a = stable_workload(stable_distribution(), 40, catalog, seed=1)
        b = stable_workload(stable_distribution(), 40, catalog, seed=2)
        merged = multi_client_workload([a, b], seed=3)
        client0 = [
            q for q, s in zip(merged.queries, merged.source) if s.startswith("client0:")
        ]
        assert client0 == a.queries  # same objects, same order

    def test_source_labels_prefixed(self, catalog):
        a = stable_workload(stable_distribution(), 10, catalog, seed=1)
        merged = multi_client_workload([a], seed=0)
        assert all(s == "client0:stable" for s in merged.source)

    def test_interleaving_is_mixed(self, catalog):
        a = stable_workload(stable_distribution(), 50, catalog, seed=1)
        b = stable_workload(stable_distribution(), 50, catalog, seed=2)
        merged = multi_client_workload([a, b], seed=4)
        first_half = merged.source[:50]
        assert any(s.startswith("client0") for s in first_half)
        assert any(s.startswith("client1") for s in first_half)

    def test_deterministic(self, catalog):
        a = stable_workload(stable_distribution(), 20, catalog, seed=1)
        b = stable_workload(stable_distribution(), 20, catalog, seed=2)
        m1 = multi_client_workload([a, b], seed=5)
        m2 = multi_client_workload([a, b], seed=5)
        assert m1.source == m2.source


class TestClientIds:
    def test_every_query_is_tagged(self, catalog):
        a = stable_workload(stable_distribution(), 30, catalog, seed=1)
        b = stable_workload(stable_distribution(), 20, catalog, seed=2)
        merged = multi_client_workload([a, b], seed=0)
        assert merged.client_ids is not None
        assert len(merged.client_ids) == len(merged.queries)
        assert set(merged.client_ids) == {0, 1}

    def test_tags_agree_with_source_labels(self, catalog):
        a = stable_workload(stable_distribution(), 25, catalog, seed=1)
        b = stable_workload(stable_distribution(), 25, catalog, seed=2)
        merged = multi_client_workload([a, b], seed=7)
        for label, client in zip(merged.source, merged.client_ids):
            assert label.startswith(f"client{client}:")

    def test_tag_counts_match_client_stream_lengths(self, catalog):
        a = stable_workload(stable_distribution(), 30, catalog, seed=1)
        b = stable_workload(stable_distribution(), 50, catalog, seed=2)
        merged = multi_client_workload([a, b], seed=0)
        assert merged.client_ids.count(0) == 30
        assert merged.client_ids.count(1) == 50

    def test_same_seeds_give_identical_interleaving(self, catalog):
        def build():
            a = stable_workload(stable_distribution(), 40, catalog, seed=11)
            b = stable_workload(stable_distribution(), 40, catalog, seed=12)
            return multi_client_workload([a, b], seed=13)

        m1, m2 = build(), build()
        assert m1.client_ids == m2.client_ids
        assert m1.source == m2.source
        assert [q.filters[0].column for q in m1.queries] == [
            q.filters[0].column for q in m2.queries
        ]

    def test_different_seed_changes_interleaving(self, catalog):
        a = stable_workload(stable_distribution(), 40, catalog, seed=11)
        b = stable_workload(stable_distribution(), 40, catalog, seed=12)
        m1 = multi_client_workload([a, b], seed=1)
        m2 = multi_client_workload([a, b], seed=2)
        assert m1.client_ids != m2.client_ids

    def test_single_client_workloads_stay_untagged(self, catalog):
        wl = stable_workload(stable_distribution(), 10, catalog, seed=1)
        assert wl.client_ids is None

    @pytest.mark.parametrize("clients", [1, 3, 5])
    def test_shifting_clients_match_the_spelled_out_recipe(self, catalog, clients):
        phases = phase_distributions()
        streams = [
            shifting_workload(
                [phases[i % len(phases)], phases[(i + 1) % len(phases)]],
                catalog,
                phase_length=30,
                transition=6,
                seed=4 + i,
            )
            for i in range(clients)
        ]
        want = multi_client_workload(streams, seed=4 + 7)
        got = multi_client_shifting_workload(
            phases, catalog, clients, phase_length=30, transition=6, seed=4
        )
        assert got.queries == want.queries
        assert got.source == want.source
        assert got.client_ids == want.client_ids


def _noise_runs(source):
    runs = []
    current = 0
    for s in source:
        if s == "q2_noise":
            current += 1
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)
    return runs
