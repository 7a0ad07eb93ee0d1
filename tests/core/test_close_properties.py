"""Property suites for the epoch close's incremental pieces, all with ``==``.

Each piece the close now computes incrementally or in a single pass is
compared against the from-scratch code it replaced, kept here verbatim as
the oracle: the forecast sum, the knapsack's take-everything exit, the
running cluster populations and the candidates' idle-run staleness.
"""

import math
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateStats, CandidateTracker
from repro.core.clustering import ClusterStore, cluster_key
from repro.core.forecast import total_predicted_benefit
from repro.core.knapsack import (
    KnapsackItem,
    _solve_exact,
    _take_all,
    solve_knapsack,
)
from repro.workload import build_catalog, shifting_workload
from repro.workload.experiments import phase_distributions

H = 12  # ColtConfig.history_epochs

benefits = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-13, 1e300]),
)


# ----------------------------------------------------------------------
# forecast
def _predicted_benefit_oracle(history, j, min_window):
    if not history:
        return 0.0
    span = max(j, min_window)
    window = list(history[-span:]) if span < len(history) else list(history)
    return sum(window) / len(window)


def _total_predicted_benefit_oracle(history, horizon, min_window):
    """``total_predicted_benefit`` as it stood before the single pass."""
    if not history:
        return 0.0
    by_window = {}
    terms = []
    for j in range(1, horizon + 1):
        window = min(max(j, min_window), len(history))
        if window not in by_window:
            by_window[window] = _predicted_benefit_oracle(history, j, min_window)
        terms.append(by_window[window])
    return sum(terms)


@given(
    history=st.lists(benefits, max_size=2 * H),
    horizon=st.integers(1, 24),
    min_window=st.integers(1, 8),
)
@settings(max_examples=600, deadline=None)
def test_single_pass_forecast_equals_the_windowed_definition(
    history, horizon, min_window
):
    got = total_predicted_benefit(history, horizon, min_window)
    want = _total_predicted_benefit_oracle(history, horizon, min_window)
    assert got == want or (math.isnan(got) and math.isnan(want))  # inf - inf


# ----------------------------------------------------------------------
# knapsack
def _search(items, capacity, incumbent):
    """``solve_knapsack`` with the branch-and-bound deciding every case."""
    viable = [it for it in items if it.value > 0.0 and 0.0 < it.size <= capacity]
    if not viable or capacity <= 0.0:
        return [], 0.0
    order = sorted(viable, key=lambda it: it.value / it.size, reverse=True)
    return _solve_exact(order, capacity, incumbent)


sizes = st.one_of(st.floats(0.01, 500.0), st.sampled_from([0.1, 0.2, 0.3, 0.7, 0.9]))
values = st.one_of(
    st.floats(-10.0, 1e5),
    st.sampled_from([0.0, 5e-324, 1e-13, 1e-12, 1e-10, 3e-10, 1.0, 1e5]),
)


@given(
    pairs=st.lists(st.tuples(sizes, values), min_size=1, max_size=8),
    fit=st.sampled_from(["exact", "below", "above", "half", "double"]),
    seed=st.sampled_from(["none", "below", "at", "just_above", "above"]),
)
@settings(max_examples=800, deadline=None)
def test_take_all_exit_is_the_search_result(pairs, fit, seed):
    items = [KnapsackItem(key=i, size=s, value=v) for i, (s, v) in enumerate(pairs)]
    # Capacities around the point where everything fits: the sum the
    # descent itself forms (density order), one ulp either side, and far.
    order = sorted(
        (it for it in items if it.value > 0.0), key=lambda it: it.value / it.size, reverse=True
    )
    total = 0.0
    for it in order:
        total += it.size
    capacity = {
        "exact": total,
        "below": math.nextafter(total, 0.0),
        "above": math.nextafter(total, math.inf),
        "half": total / 2,
        "double": total * 2,
    }[fit]
    optimum = _search(items, capacity, 0.0)[1]
    incumbent = {
        "none": 0.0,
        "below": optimum * 0.75,
        "at": optimum,
        "just_above": optimum * (1 + 2e-9) + 2e-9,
        "above": optimum * 2 + 1.0,
    }[seed]
    got = solve_knapsack(items, capacity, incumbent_value=incumbent)
    assert got == _search(items, capacity, incumbent)  # selection and value


def test_take_all_exit_fires_only_when_everything_fits():
    a, b = KnapsackItem("a", 2.0, 6.0), KnapsackItem("b", 3.0, 3.0)
    assert _take_all([a, b], 5.0, 0.0) == 9.0
    assert _take_all([a], 2.0, 0.0) == 6.0
    assert _take_all([a, b], 4.9, 0.0) is None  # b is left out
    assert _take_all([a, b], 5.0, 9.0) == 9.0  # a warm start that is the optimum
    assert _take_all([a, b], 5.0, 9.5) is None  # seeded above it: the search decides
    assert _take_all([a, KnapsackItem("c", 1.0, 1e-13)], 5.0, 0.0) is None


# ----------------------------------------------------------------------
# cluster populations
class _WindowedStore:
    """The per-cluster count windows the running totals replaced."""

    def __init__(self, history_epochs):
        self.history = history_epochs
        self.clusters = {}  # key -> [cluster id, window, epoch count]
        self.next_id = 0

    def assign(self, key):
        if key not in self.clusters:
            self.clusters[key] = [self.next_id, deque(maxlen=self.history), 0]
            self.next_id += 1
        self.clusters[key][2] += 1

    def roll_epoch(self):
        for entry in self.clusters.values():
            entry[1].append(entry[2])
            entry[2] = 0
        for key in [k for k, e in self.clusters.items() if sum(e[1]) == 0]:
            del self.clusters[key]

    def view(self):
        return [(k, e[0], sum(e[1]) + e[2]) for k, e in self.clusters.items()]


def _distinct_cluster_queries(catalog, wanted=6):
    queries = shifting_workload(
        phase_distributions(), catalog, phase_length=40, transition=10, seed=3
    ).queries
    by_key = {}
    for query in queries:
        by_key.setdefault(cluster_key(query, catalog), query)
    return list(by_key.values())[:wanted]


CATALOG = build_catalog()
QUERIES = _distinct_cluster_queries(CATALOG)
ROLL = len(QUERIES)


@given(
    history_epochs=st.integers(1, 4),
    ops=st.lists(st.integers(0, ROLL), max_size=120),
)
@settings(max_examples=300, deadline=None)
def test_running_cluster_totals_equal_recomputed_sums(history_epochs, ops):
    store = ClusterStore(CATALOG, history_epochs)
    oracle = _WindowedStore(history_epochs)
    for op in ops:
        if op == ROLL:
            store.roll_epoch()
            oracle.roll_epoch()
        else:
            cluster = store.assign(QUERIES[op])
            oracle.assign(cluster.key)
        view = oracle.view()
        assert [(c.key, c.cluster_id, c.count()) for c in store.clusters()] == view
        assert store.total_count() == sum(count for _, _, count in view)
        assert len(store) == len(view)
        assert all(store.by_id(cid).key == key for key, cid, _ in view)


# ----------------------------------------------------------------------
# candidate staleness
def _stale_by_scan(window):
    """``CandidateStats.stale`` as a scan of the whole window."""
    return len(window) == window.maxlen and all(b <= 0.0 for b in window)


@given(
    history_epochs=st.integers(1, 5),
    epochs=st.lists(st.lists(benefits, max_size=3), max_size=40),
    reload_at=st.integers(0, 40),
)
@settings(max_examples=400, deadline=None)
def test_idle_run_staleness_equals_the_window_scan(history_epochs, epochs, reload_at):
    index = CATALOG.index_for("lineitem_1", "l_shipdate")
    stats = CandidateStats(index, history_epochs, 0.5)
    window = deque(maxlen=history_epochs)
    for epoch, gains in enumerate(epochs):
        if epoch == reload_at:  # a snapshot restore adopts the window
            reloaded = CandidateStats(index, history_epochs, 0.5)
            reloaded.load(list(window), stats.smoothed_benefit)
            stats = reloaded
        total = 0.0
        for gain in gains:
            stats.add_gain(gain)
            total += gain
        stats.roll_epoch(10)
        window.append(total / 10)
        assert stats.stale() == _stale_by_scan(window)


@given(
    history_epochs=st.integers(1, 4),
    epochs=st.lists(
        st.lists(st.sampled_from([-1.0, 0.0, 0.0, 2.5]), min_size=4, max_size=4),
        max_size=30,
    ),
)
@settings(max_examples=200, deadline=None)
def test_tracker_evicts_exactly_the_scan_stale_candidates(history_epochs, epochs):
    indexes = [
        CATALOG.index_for("lineitem_1", column)
        for column in ("l_shipdate", "l_commitdate", "l_receiptdate", "l_quantity")
    ]
    tracker = CandidateTracker(CATALOG, history_epochs, 0.5)
    tracker.seed(indexes)
    windows = {ix: deque(maxlen=history_epochs) for ix in indexes}
    for gains in epochs:
        for index, gain in zip(indexes, gains):
            if index in windows:
                tracker.stats_for(index).add_gain(gain)
                windows[index].append(gain / 10)
        tracker.roll_epoch(10)
        windows = {ix: w for ix, w in windows.items() if not _stale_by_scan(w)}
        assert set(tracker.candidates()) == set(windows)
