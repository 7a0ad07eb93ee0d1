"""Seeded randomized property tests for the pure decision kernels.

Unlike ``tests/test_properties.py`` (hypothesis-driven, whole-pipeline),
these use only the stdlib ``random`` module with fixed seeds, so each
case list is fully reproducible, and they target the two pure kernels
the reorganizer trusts blindly: the 0/1 knapsack solver and the 1-D
exact 2-means hot/cold split.
"""

import random

import pytest

from repro.core.knapsack import MAX_EXACT_ITEMS, KnapsackItem, solve_knapsack
from repro.core.self_organizer import two_means_split

from tests.core.test_knapsack import solve_greedy


def _random_instance(rng, n=None):
    """A random knapsack instance (items, capacity)."""
    n = n if n is not None else rng.randint(1, 12)
    items = [
        KnapsackItem(
            key=i,
            size=rng.uniform(0.05, 5.0),
            value=rng.uniform(-1.0, 10.0),
        )
        for i in range(n)
    ]
    capacity = rng.uniform(0.1, 12.0)
    return items, capacity


class TestKnapsackProperties:
    def test_never_exceeds_budget(self):
        rng = random.Random(20260805)
        for _ in range(200):
            items, capacity = _random_instance(rng)
            selected, value = solve_knapsack(items, capacity)
            eps = 1e-9 * max(1.0, capacity)
            assert sum(it.size for it in selected) <= capacity + eps
            assert value == pytest.approx(sum(it.value for it in selected))
            assert all(it.value > 0 for it in selected)

    def test_greedy_never_beats_exact(self):
        rng = random.Random(42)
        for _ in range(200):
            items, capacity = _random_instance(rng)
            _, exact = solve_knapsack(items, capacity)
            greedy_sel, greedy = solve_greedy(items, capacity)
            assert greedy <= exact + 1e-9
            eps = 1e-9 * max(1.0, capacity)
            assert sum(it.size for it in greedy_sel) <= capacity + eps

    def test_large_pools_stay_feasible(self):
        rng = random.Random(7)
        for _ in range(20):
            items, capacity = _random_instance(rng, n=MAX_EXACT_ITEMS + 8)
            selected, _ = solve_knapsack(items, capacity)
            assert sum(it.size for it in selected) <= capacity + 1e-9

    def test_deterministic_for_tied_net_benefits(self):
        # Every item identical: density ties everywhere.  Repeated
        # solves must pick the same keys, and any permutation of the
        # input must reach the same total value.
        rng = random.Random(99)
        for _ in range(50):
            n = rng.randint(2, 10)
            items = [
                KnapsackItem(key=i, size=1.0, value=3.0) for i in range(n)
            ]
            capacity = rng.uniform(0.5, n + 1.0)
            first_sel, first_val = solve_knapsack(items, capacity)
            again_sel, again_val = solve_knapsack(items, capacity)
            assert [it.key for it in first_sel] == [it.key for it in again_sel]
            assert first_val == again_val
            shuffled = items[:]
            rng.shuffle(shuffled)
            _, shuffled_val = solve_knapsack(shuffled, capacity)
            assert shuffled_val == pytest.approx(first_val)

    def test_repeated_solves_are_identical_on_random_instances(self):
        rng = random.Random(314)
        for _ in range(100):
            items, capacity = _random_instance(rng)
            a_sel, a_val = solve_knapsack(items, capacity)
            b_sel, b_val = solve_knapsack(items, capacity)
            assert [it.key for it in a_sel] == [it.key for it in b_sel]
            assert a_val == b_val


class TestTwoMeansProperties:
    def test_split_is_valid_and_permutation_invariant(self):
        rng = random.Random(1618)
        for _ in range(200):
            n = rng.randint(1, 40)
            values = [rng.uniform(0.0, 100.0) for _ in range(n)]
            ordered = sorted(values, reverse=True)
            split = two_means_split(ordered)
            assert 1 <= split <= n
            shuffled = values[:]
            rng.shuffle(shuffled)
            assert two_means_split(sorted(shuffled, reverse=True)) == split

    def test_clear_clusters_are_separated_at_the_gap(self):
        rng = random.Random(5)
        for _ in range(50):
            top = [rng.uniform(90.0, 100.0) for _ in range(rng.randint(1, 8))]
            bottom = [rng.uniform(0.0, 10.0) for _ in range(rng.randint(1, 8))]
            values = sorted(top + bottom, reverse=True)
            assert two_means_split(values) == len(top)

    def test_empty_input(self):
        assert two_means_split([]) == 0
