"""Unit and property tests for the knapsack solvers."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knapsack import KnapsackItem, solve_knapsack


def _items(triples):
    return [KnapsackItem(key=i, size=s, value=v) for i, (s, v) in enumerate(triples)]


def solve_greedy(items, capacity):
    """Density-ordered greedy knapsack (value per size, descending): a
    feasible lower bound on the exact solvers."""
    viable = [it for it in items if it.value > 0.0 and 0.0 < it.size <= capacity]
    viable.sort(key=lambda it: it.value / it.size, reverse=True)
    selected = []
    used = total = 0.0
    for item in viable:
        if used + item.size <= capacity:
            selected.append(item)
            used += item.size
            total += item.value
    return selected, total


class TestExactSolver:
    def test_empty(self):
        assert solve_knapsack([], 10.0) == ([], 0.0)

    def test_zero_capacity(self):
        items = _items([(1.0, 5.0)])
        assert solve_knapsack(items, 0.0) == ([], 0.0)

    def test_takes_everything_that_fits(self):
        items = _items([(2.0, 5.0), (3.0, 4.0)])
        selected, value = solve_knapsack(items, 10.0)
        assert len(selected) == 2
        assert value == 9.0

    def test_classic_tradeoff(self):
        # One big valuable item vs two smaller ones worth more together.
        items = _items([(10.0, 60.0), (6.0, 35.0), (5.0, 30.0)])
        selected, value = solve_knapsack(items, 11.0)
        assert value == 65.0
        assert {it.size for it in selected} == {6.0, 5.0}

    def test_negative_value_never_selected(self):
        items = _items([(1.0, -5.0), (1.0, 3.0)])
        selected, value = solve_knapsack(items, 10.0)
        assert len(selected) == 1
        assert value == 3.0

    def test_oversized_item_excluded(self):
        items = _items([(100.0, 1000.0), (1.0, 1.0)])
        selected, _ = solve_knapsack(items, 10.0)
        assert [it.size for it in selected] == [1.0]

    def test_selection_fits_capacity(self):
        items = _items([(3.3, 10.0), (3.3, 10.0), (3.5, 10.0)])
        selected, _ = solve_knapsack(items, 7.0)
        assert sum(it.size for it in selected) <= 7.0

    @given(
        sizes=st.lists(st.floats(0.1, 20.0), min_size=1, max_size=10),
        values=st.lists(st.floats(0.1, 100.0), min_size=10, max_size=10),
        capacity=st.floats(1.0, 40.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, sizes, values, capacity):
        items = [
            KnapsackItem(key=i, size=s, value=v)
            for i, (s, v) in enumerate(zip(sizes, values))
        ]
        selected, value = solve_knapsack(items, capacity)
        assert sum(it.size for it in selected) <= capacity + 1e-9

        best = 0.0
        for r in range(len(items) + 1):
            for combo in itertools.combinations(items, r):
                if sum(it.size for it in combo) <= capacity:
                    best = max(best, sum(it.value for it in combo))
        # Small pools use the exact branch-and-bound solver.
        assert value == pytest.approx(best)


class TestGridFallback:
    def test_large_pool_uses_grid_and_stays_feasible(self):
        # 30 items exceeds MAX_EXACT_ITEMS → DP grid path.
        items = _items([(1.0 + (i % 7) * 0.37, 1.0 + i) for i in range(30)])
        selected, value = solve_knapsack(items, 20.0)
        assert sum(it.size for it in selected) <= 20.0 + 1e-9
        assert value == pytest.approx(sum(it.value for it in selected))

    def test_grid_close_to_greedy_or_better(self):
        items = _items([(0.5 + (i % 5), 10.0 + (i * 3) % 17) for i in range(40)])
        _, grid_value = solve_knapsack(items, 25.0)
        _, greedy_value = solve_greedy(items, 25.0)
        # The DP should not be much worse than greedy (usually better).
        assert grid_value >= greedy_value * 0.95


class TestGreedy:
    def test_greedy_never_beats_exact(self):
        items = _items([(10.0, 60.0), (6.0, 35.0), (5.0, 30.0)])
        _, greedy_value = solve_greedy(items, 11.0)
        _, exact_value = solve_knapsack(items, 11.0)
        assert greedy_value <= exact_value + 1e-9

    def test_exact_escapes_the_density_trap(self):
        items = _items([(10.0, 10.0), (1.0, 5.0)])
        # Density picks the small dense item first, then the big one no
        # longer fits; the exact solver takes the big one alone.
        greedy, _ = solve_greedy(items, 10.0)
        assert [it.size for it in greedy] == [1.0]
        exact, value = solve_knapsack(items, 10.0)
        assert [it.size for it in exact] == [10.0]
        assert value == 10.0

    def test_greedy_respects_capacity(self):
        items = _items([(4.0, 10.0), (4.0, 9.0), (4.0, 8.0)])
        for solve in (solve_greedy, solve_knapsack):
            selected, value = solve(items, 8.0)
            assert sum(it.size for it in selected) <= 8.0
            assert value == 19.0
