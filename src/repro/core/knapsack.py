"""0/1 knapsack solvers for index selection.

The Self-Organizer models reorganization as a knapsack: objects are the
indexes of ``H ∪ M``, sizes are index sizes in pages, values are
``NetBenefit`` forecasts, and the capacity is the storage budget ``B``
(§5).  Pools of at most :data:`MAX_EXACT_ITEMS` items -- every pool an
epoch close builds -- are solved exactly by branch-and-bound over the
true float sizes; larger pools go to a DP that discretizes the sizes onto
a fixed grid (rounding them *up*, which keeps solutions feasible).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

#: Capacity cells of the DP that solves pools over :data:`MAX_EXACT_ITEMS`.
DEFAULT_RESOLUTION = 2048


class KnapsackItem(NamedTuple):
    """One knapsack object (a tuple: an epoch close builds a dozen).

    Attributes:
        key: Caller's identifier (e.g. an :class:`IndexDef`).
        size: Size in the capacity's unit (> 0).
        value: Net benefit; items with non-positive value are never
            selected (materializing them cannot pay off).
    """

    key: object
    size: float
    value: float


# Pools up to this size solve exactly with branch-and-bound over the true
# (float) sizes; larger pools fall back to the discretized DP.
MAX_EXACT_ITEMS = 24


@dataclasses.dataclass(frozen=True)
class SelectionConstraints:
    """The constraints on one knapsack solve (see :func:`constraints_from`).

    Keys must compare equal to the ``key`` attribute of the
    :class:`KnapsackItem` objects they constrain (the Self-Organizer
    uses :class:`~repro.engine.index.IndexDef` for both).

    Attributes:
        pinned: Hard constraint -- these keys are always selected, even
            when their value is non-positive or they exceed the
            capacity on their own (the DBA overrides the budget
            knowingly); their sizes are deducted from the capacity
            before the free items are solved.
        banned: Hard constraint -- these keys are never selected,
            regardless of value.  A key both pinned and banned is
            rejected (see :meth:`validate`).
        preferred: Soft constraint -- value multipliers (> 0) applied to
            the named keys before solving, biasing the objective toward
            (or, below 1.0, away from) them without guaranteeing
            selection.
    """

    pinned: FrozenSet[object] = frozenset()
    banned: FrozenSet[object] = frozenset()
    preferred: Tuple[Tuple[object, float], ...] = ()

    def __post_init__(self) -> None:
        overlap = set(self.pinned) & set(self.banned)
        if overlap:
            raise ValueError(
                f"keys both pinned and banned: {sorted(map(str, overlap))}"
            )
        for _, weight in self.preferred:
            if weight <= 0.0:
                raise ValueError("preference weights must be positive")

    def __bool__(self) -> bool:
        return bool(self.pinned or self.banned or self.preferred)

    @property
    def preference_map(self) -> Dict[object, float]:
        """The soft preferences as a key -> multiplier mapping."""
        return dict(self.preferred)


#: The constraint set of a close nothing ruled on.
UNCONSTRAINED = SelectionConstraints()


class Ruling(NamedTuple):
    """One constraint source's word on one index at an epoch close.

    Attributes:
        index: The index ruled on (a knapsack item key).
        kind: ``"pin"``, ``"ban"`` or ``"prefer"``.
        source: Who ruled: ``"dba"`` (advice), ``"quarantine"``
            (guardrails), any source a caller pushes through
            ``TuningLoop.push_rulings``, or ``"safety"`` (the bandit's
            fallback).
        weight: Value multiplier of a ``prefer`` ruling (> 0).
        reason: Why, for a reader of the close.
        until: First epoch close at which the ruling lapses by itself;
            None while its source keeps it.
    """

    index: object
    kind: str
    source: str
    weight: float = 1.0
    reason: str = ""
    until: Optional[int] = None


def constraints_from(rulings: Sequence[Ruling]) -> SelectionConstraints:
    """Merge every stage's rulings into one knapsack constraint set.

    Pins win; a ban from any source holds unless the index is pinned; a
    preference holds unless the index is pinned or banned, a DBA
    preference out-ranking every other source's on the same index
    (otherwise the first ruling stands).  Preferences are ordered by
    ``str(key)`` so the result does not depend on set iteration order.
    """
    if not rulings:  # most closes
        return UNCONSTRAINED
    pinned = frozenset(r.index for r in rulings if r.kind == "pin")
    banned = frozenset(
        r.index for r in rulings if r.kind == "ban" and r.index not in pinned
    )
    preferred: Dict[object, float] = {}
    for r in sorted(
        (r for r in rulings if r.kind == "prefer"), key=lambda r: r.source != "dba"
    ):
        if r.index not in pinned and r.index not in banned:
            preferred.setdefault(r.index, r.weight)
    return SelectionConstraints(
        pinned=pinned,
        banned=banned,
        preferred=tuple(sorted(preferred.items(), key=lambda kv: str(kv[0]))),
    )


def solve_constrained(
    items: Sequence[KnapsackItem],
    capacity: float,
    constraints: SelectionConstraints,
) -> Tuple[List[KnapsackItem], float]:
    """Solve 0/1 knapsack under pin/ban/prefer constraints.

    Pinned items are taken unconditionally (their *true* values count
    toward the returned total) and their sizes shrink the capacity
    available to the free items; banned items are removed before
    solving; preferred items have their values scaled for the solve
    only -- the returned total is in the scaled objective, mirroring
    how soft preferences distort NetBenefit comparisons.

    Returns:
        (selected items, total value) with pinned items listed first in
        the order given; with no constraints, :func:`solve_knapsack`'s.
    """
    if not constraints:
        return solve_knapsack(items, capacity)
    prefs = constraints.preference_map
    pinned: List[KnapsackItem] = []
    free: List[KnapsackItem] = []
    seen_pinned = set()
    for item in items:
        if item.key in constraints.banned:
            continue
        if item.key in constraints.pinned:
            if item.key not in seen_pinned:
                seen_pinned.add(item.key)
                pinned.append(item)
            continue
        weight = prefs.get(item.key)
        if weight is not None:
            item = item._replace(value=item.value * weight)
        free.append(item)
    room = max(0.0, capacity - sum(it.size for it in pinned))
    selected, total = solve_knapsack(free, room)
    pinned_value = sum(it.value for it in pinned)
    return pinned + selected, pinned_value + total


def solve_knapsack(
    items: Sequence[KnapsackItem],
    capacity: float,
) -> Tuple[List[KnapsackItem], float]:
    """Solve 0/1 knapsack.

    Pools of at most :data:`MAX_EXACT_ITEMS` items (every pool COLT ever
    builds -- ``H ∪ M`` is small) are solved exactly over the true float
    sizes with branch-and-bound; larger pools use a discretized DP whose
    size rounding (:data:`DEFAULT_RESOLUTION` cells) keeps solutions
    feasible.

    Args:
        items: Candidate objects.
        capacity: Knapsack capacity (>= 0).

    Returns:
        (selected items, total value).  Items with value <= 0 or size
        exceeding the capacity are excluded a priori.
    """
    viable = [
        it for it in items if it.value > 0.0 and 0.0 < it.size <= capacity
    ]
    if not viable or capacity <= 0.0:
        return [], 0.0
    if len(viable) > MAX_EXACT_ITEMS:
        return _solve_grid(viable, capacity)
    order = sorted(viable, key=lambda it: it.value / it.size, reverse=True)
    total = _take_all(order, capacity)
    if total is not None:
        return order, total
    return _solve_exact(order, capacity)


def _take_all(order: List[KnapsackItem], capacity: float) -> Optional[float]:
    """Total value when nothing has to be left out, else None.

    When every item still fits as sizes come off the capacity in density
    order, the search's first descent takes them all, accumulating this
    very sum; values are positive, so no subset sums higher in float
    arithmetic either and that descent is the search's answer.  The
    margin -- far above the summation's rounding and the prune
    tolerance, far below any NetBenefit that matters -- rules out the
    cases where the descent would be pruned on the way or would only
    tie its own last step; those go to the search.
    """
    room = capacity
    total = before = 0.0
    for item in order:
        if item.size > room:
            return None
        room -= item.size
        before = total
        total += item.value
    if total - before > 1e-10 * max(1.0, total):
        return total
    return None


def _solve_exact(
    order: List[KnapsackItem], capacity: float
) -> Tuple[List[KnapsackItem], float]:
    """Branch-and-bound with the fractional-relaxation upper bound.

    ``order`` lists the viable items by descending value density.  The
    search is depth first, taking an item before leaving it out; a node
    is ``(position, room left, value so far, mask of items taken)`` and
    its bound, written out in the loop, is the value of the fractional
    relaxation over the items from its position on.
    """
    sizes = [it.size for it in order]
    values = [it.value for it in order]
    n = len(order)

    best_value = 0.0
    best_mask = 0

    # Feasibility tolerance: subtracting sizes from the remaining room
    # one by one accumulates rounding that the combination's plain sum
    # does not (1.0 - 0.9 < 0.1 even though 0.1 + 0.9 <= 1.0), so a
    # strict comparison can wrongly prune the optimal solution.
    eps = 1e-9 * max(1.0, capacity)

    # The node in hand is (pos, room, value, mask); it goes on to the
    # child that takes item ``pos`` while the one that leaves it out
    # waits on the stack, so the whole subtree that takes an item is
    # searched before the one that leaves it out.
    stack: List[Tuple[int, float, float, int]] = []
    push = stack.append
    pop = stack.pop
    pos, room, value, mask = 0, capacity, 0.0, 0
    while True:
        if value > best_value:
            best_value = value
            best_mask = mask
        if pos < n:
            bound = 0.0
            left = room
            for i in range(pos, n):
                size = sizes[i]
                if size <= left:
                    left -= size
                    bound += values[i]
                else:
                    bound += values[i] * (left / size)
                    break
            if not value + bound <= best_value + 1e-12:  # a NaN bound searches on
                size = sizes[pos]
                if size <= room + eps:
                    push((pos + 1, room, value, mask))
                    room -= size
                    value += values[pos]
                    mask |= 1 << pos
                pos += 1
                continue
        if not stack:
            break
        pos, room, value, mask = pop()

    selected = [order[i] for i in range(n) if best_mask & (1 << i)]
    return selected, best_value


def _solve_grid(
    viable: List[KnapsackItem], capacity: float
) -> Tuple[List[KnapsackItem], float]:
    """DP over capacity cells; sizes round up, so solutions always fit."""
    cells = DEFAULT_RESOLUTION
    unit = capacity / cells
    weights = [max(1, int(-(-it.size // unit))) for it in viable]

    dp = [0.0] * (cells + 1)
    choice = [[False] * (cells + 1) for _ in viable]
    for i, (item, w) in enumerate(zip(viable, weights)):
        row = choice[i]
        for c in range(cells, w - 1, -1):
            candidate = dp[c - w] + item.value
            if candidate > dp[c]:
                dp[c] = candidate
                row[c] = True

    selected: List[KnapsackItem] = []
    c = cells
    for i in range(len(viable) - 1, -1, -1):
        if choice[i][c]:
            selected.append(viable[i])
            c -= weights[i]
    selected.reverse()
    return selected, dp[cells]

