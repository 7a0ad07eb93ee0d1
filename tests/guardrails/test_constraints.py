"""Property tests: constrained knapsack honors pins, bans, and budget."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knapsack import (
    KnapsackItem,
    SelectionConstraints,
    solve_constrained,
    solve_knapsack,
)

_sizes = st.floats(min_value=0.25, max_value=40.0, allow_nan=False)
_values = st.floats(min_value=-5.0, max_value=50.0, allow_nan=False)


@st.composite
def _instances(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    items = [
        KnapsackItem(key=f"ix{i}", size=draw(_sizes), value=draw(_values))
        for i in range(n)
    ]
    keys = [item.key for item in items]
    pinned = draw(st.sets(st.sampled_from(keys), max_size=min(3, n)))
    bannable = [k for k in keys if k not in pinned]
    banned = (
        draw(st.sets(st.sampled_from(bannable), max_size=min(3, len(bannable))))
        if bannable
        else set()
    )
    preferred = tuple(
        (k, draw(st.floats(min_value=0.1, max_value=4.0)))
        for k in draw(st.sets(st.sampled_from(keys), max_size=2))
    )
    capacity = draw(st.floats(min_value=1.0, max_value=80.0))
    constraints = SelectionConstraints(
        pinned=frozenset(pinned), banned=frozenset(banned), preferred=preferred
    )
    return items, capacity, constraints


@settings(max_examples=200, deadline=None)
@given(_instances())
def test_pins_always_selected_bans_never(instance):
    items, capacity, constraints = instance
    selected, _ = solve_constrained(items, capacity, constraints)
    chosen = {item.key for item in selected}
    assert constraints.pinned <= chosen
    assert not (constraints.banned & chosen)


@settings(max_examples=200, deadline=None)
@given(_instances())
def test_free_items_respect_residual_capacity(instance):
    items, capacity, constraints = instance
    selected, _ = solve_constrained(items, capacity, constraints)
    # Pins may knowingly exceed the budget; the *free* items must fit in
    # whatever capacity the pins leave behind.
    pinned_size = sum(
        item.size for item in selected if item.key in constraints.pinned
    )
    free_size = sum(
        item.size for item in selected if item.key not in constraints.pinned
    )
    assert free_size <= max(0.0, capacity - pinned_size) + 1e-9


@settings(max_examples=100, deadline=None)
@given(_instances())
def test_empty_constraints_match_plain_solver(instance):
    # The Self-Organizer always solves through solve_constrained: with
    # nothing ruled it must be the plain solver, to the bit.
    items, capacity, _ = instance
    selected, total = solve_constrained(
        items, capacity, SelectionConstraints()
    )
    plain, plain_total = solve_knapsack(items, capacity)
    assert [item.key for item in selected] == [item.key for item in plain]
    assert total == plain_total
    assert sum(item.size for item in selected) <= capacity + 1e-9


def test_pin_overrides_negative_value_and_budget():
    items = [KnapsackItem(key="bad", size=100.0, value=-7.0)]
    constraints = SelectionConstraints(pinned=frozenset({"bad"}))
    selected, total = solve_constrained(items, 10.0, constraints)
    assert [item.key for item in selected] == ["bad"]
    assert total == pytest.approx(-7.0)


def test_preference_tilts_a_tie():
    items = [
        KnapsackItem(key="a", size=1.0, value=10.0),
        KnapsackItem(key="b", size=1.0, value=10.0),
    ]
    constraints = SelectionConstraints(preferred=(("b", 2.0),))
    selected, _ = solve_constrained(items, 1.0, constraints)
    assert [item.key for item in selected] == ["b"]


def test_pin_ban_overlap_rejected():
    with pytest.raises(ValueError, match="pinned and banned"):
        SelectionConstraints(
            pinned=frozenset({"a"}), banned=frozenset({"a"})
        )


def test_nonpositive_preference_weight_rejected():
    with pytest.raises(ValueError, match="positive"):
        SelectionConstraints(preferred=(("a", 0.0),))
