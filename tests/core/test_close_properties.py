"""Property suites for the epoch close's incremental pieces, all with ``==``.

Each piece the close computes incrementally, in a single pass, or not at
all when a boundary cannot have changed it, is compared against the
from-scratch code it replaced, kept here verbatim as the oracle: the
forecast sum and its all-zero exit, the suffix sums a window keeps on
append and the forecast it holds until the next one, the windows' running
non-zero count, the (index, cluster) pairs' held intervals, the
knapsack's stack search against the recursive one it replaced and its
take-everything exit, the 2-means split that skips a
hopeless bottom group, the running cluster populations, the candidates'
in-line epoch roll, the profiler's unexposed-index exit, the per-index
record against the three dicts it replaced, and the no-op exits of
``TuningLoop._apply`` and the scheduler against the full protocol.
"""

import json
import math
import types
from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateStats, CandidateTracker
from repro.core.clustering import ClusterStore, cluster_key
from repro.core.colt import ColtTuner
from repro.core.config import ColtConfig
from repro.core.forecast import MIN_FORECAST_WINDOW, BenefitHistory, _total_from_sums
from repro.core.intervals import GainStats
from repro.core.knapsack import (
    MAX_EXACT_ITEMS,
    KnapsackItem,
    _solve_exact,
    _take_all,
    solve_knapsack,
)
from repro.core.scheduler import RetryReport, Scheduler
from repro.core.self_organizer import (
    _net_benefit,
    two_means_split,
)
from repro.persist import restore_tuner, snapshot_tuner
from repro.resilience.errors import IndexBuildError
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.workload import build_catalog, shifting_workload
from repro.workload.experiments import phase_distributions

from tests.obs.test_metrics_identity import _comparable

H = 12  # ColtConfig.history_epochs

benefits = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-13, 1e300]),
)


# ----------------------------------------------------------------------
# forecast
def _fold(values):
    """The built-in ``sum`` over floats as CPython <= 3.11 computes it
    (and every pinned file recorded it): a plain left fold from ``0``.
    3.12's ``sum`` is compensated, so the oracles spell the fold out."""
    total = 0
    for value in values:
        total = total + value
    return total


def _predicted_benefit_oracle(history, j, min_window):
    if not history:
        return 0.0
    span = max(j, min_window)
    window = list(history[-span:]) if span < len(history) else list(history)
    return _fold(window) / len(window)


def _total_predicted_benefit_oracle(history, horizon, min_window):
    """The summed forecast as it stood before the single pass."""
    if not history:
        return 0.0
    by_window = {}
    terms = []
    for j in range(1, horizon + 1):
        window = min(max(j, min_window), len(history))
        if window not in by_window:
            by_window[window] = _predicted_benefit_oracle(history, j, min_window)
        terms.append(by_window[window])
    return _fold(terms)


def _net_benefit_oracle(history, horizon, charge):
    """NetBenefit of a plain window, from the oracle forecast."""
    return _total_predicted_benefit_oracle(history, horizon, MIN_FORECAST_WINDOW) - charge


def suffix_forecast(history, horizon, min_window=MIN_FORECAST_WINDOW):
    """The close's forecast of ``history`` under ``min_window``: a
    :class:`BenefitHistory` holding it, read through its suffix sums."""
    if not history:
        return 0.0
    window = BenefitHistory(len(history))
    for value in history:
        window.record(value)
    return _total_from_sums(window._sums, horizon, min_window)


@given(
    history=st.lists(benefits, max_size=2 * H),
    horizon=st.integers(1, 24),
    min_window=st.integers(1, 8),
)
@settings(max_examples=600, deadline=None)
def test_single_pass_forecast_equals_the_windowed_definition(
    history, horizon, min_window
):
    got = suffix_forecast(history, horizon, min_window)
    want = _total_predicted_benefit_oracle(history, horizon, min_window)
    assert got == want or (math.isnan(got) and math.isnan(want))  # inf - inf


def _same(got, want):
    return got == want or (math.isnan(got) and math.isnan(want))


zeros = st.sampled_from([0.0, -0.0])
# Windows with few, late or no non-zero terms, beside the dense ones.
sparse_histories = st.one_of(
    st.lists(zeros, max_size=2 * H),
    st.lists(st.one_of(zeros, zeros, benefits), max_size=2 * H),
    st.lists(st.one_of(benefits, st.just(math.nan), st.just(math.inf)), max_size=H),
)
charges = st.one_of(
    st.floats(allow_nan=False), st.sampled_from([0.0, -0.0, 5e-324, 1e300])
)


@given(
    values=sparse_histories,
    history_epochs=st.integers(1, H),
    horizon=st.integers(0, 24),
    charge=charges,
)
@settings(deadline=None)
def test_zero_window_exit_equals_the_full_forecast(
    values, history_epochs, horizon, charge
):
    history = BenefitHistory(history_epochs)
    for value in values:
        history.record(value)
    windowed = history.values()
    assert windowed == values[-history_epochs:]
    assert _same(
        history.predicted_total(horizon),
        _total_predicted_benefit_oracle(windowed, horizon, MIN_FORECAST_WINDOW),
    )
    assert _same(
        _net_benefit(history, horizon, charge),
        _net_benefit_oracle(windowed, horizon, charge),
    )
    if not values:  # an index without a window forecasts like an empty one
        assert _same(_net_benefit(None, horizon, charge), _net_benefit_oracle([], horizon, charge))


_window_op = st.one_of(
    st.one_of(zeros, benefits, st.just(math.nan)),
    st.sampled_from(["clear", "restore"]),
)


@given(history_epochs=st.integers(1, 5), ops=st.lists(_window_op, max_size=60))
@settings(deadline=None)
def test_running_nonzero_count_equals_a_recount(history_epochs, ops):
    history = BenefitHistory(history_epochs)
    for op in ops:
        if op == "clear":
            history.clear()
        elif op == "restore":  # as repro.persist replays a stored window
            stored = json.loads(json.dumps(history.values()))
            history = BenefitHistory(history_epochs)
            for value in stored[-history_epochs:]:
                history.record(float(value))
        else:
            history.record(op)
        assert history.nonzero == sum(1 for value in history.values() if value != 0.0)
        assert len(history) <= history_epochs


_forecast_op = st.one_of(
    st.one_of(zeros, benefits, st.sampled_from([math.nan, math.inf, -math.inf])),
    st.sampled_from(["clear", "restore"]),
    st.tuples(st.just("read"), st.integers(0, 2 * H)),
)


@given(
    history_epochs=st.integers(1, H),
    ops=st.lists(_forecast_op, max_size=3 * H),
)
@example(history_epochs=3, ops=[1.0, 2.0, "clear", 3.0, ("read", 2)])
@example(history_epochs=2, ops=[1.0, 2.0, 4.0, ("read", 7), ("read", 1), "restore"])
@settings(deadline=None)
def test_held_suffix_sums_forecast_as_the_window_does(history_epochs, ops):
    """The suffix sums kept on ``record`` forecast like the window made
    from scratch, through appends past the window, clears, restores and
    repeated reads."""
    history = BenefitHistory(history_epochs)
    for op in ops:
        if op == "clear":
            history.clear()
        elif op == "restore":  # as repro.persist replays a stored window
            stored = json.loads(json.dumps(history.values()))
            history = BenefitHistory(history_epochs)
            for value in stored[-history_epochs:]:
                history.record(float(value))
        elif isinstance(op, tuple):
            horizon = op[1]
            want = _total_predicted_benefit_oracle(
                history.values(), horizon, MIN_FORECAST_WINDOW
            )
            for _ in range(2):  # a read changes nothing
                assert _same(history.predicted_total(horizon), want)
        else:
            history.record(op)
        windowed = history.values()
        assert _same(
            history.predicted_total(H), _total_predicted_benefit_oracle(windowed, H, MIN_FORECAST_WINDOW)
        )


# ----------------------------------------------------------------------
# gain intervals
def _half_width_oracle(stats):
    """``GainStats.half_width`` as it stood, from the running moments."""
    if stats.count == 0:
        return math.inf
    if stats.count == 1:
        return 0.5 * abs(stats._mean)
    return stats._z * math.sqrt(stats._m2 / (stats.count - 1)) / math.sqrt(stats.count)


def _interval_oracle(stats):
    """``GainStats.interval`` as it stood."""
    if stats.count == 0:
        return 0.0, math.inf
    hw = _half_width_oracle(stats)
    return max(0.0, stats._mean - hw), stats._mean + hw


def _relative_uncertainty_oracle(stats):
    """``GainStats.relative_uncertainty`` as it stood."""
    if stats.count == 0:
        return math.inf
    return _half_width_oracle(stats) / (abs(stats._mean) + 1e-9)


def _same_floats(got, want):
    return len(got) == len(want) and all(map(_same, got, want))


gains = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-13, 1e300, math.inf, -math.inf, math.nan]),
)


@given(
    confidence=st.sampled_from([0.8, 0.9, 0.95]),
    ops=st.lists(st.one_of(gains, st.just("read")), max_size=40),
)
@settings(deadline=None)
def test_held_interval_equals_a_fresh_computation(confidence, ops):
    stats = GainStats(confidence)
    samples = []
    for op in ops:
        if op == "read":  # the held values, read twice
            for _ in range(2):
                held = (*stats.interval(), stats.half_width(), stats.relative_uncertainty())
                assert _same_floats(held[:2], (stats.low, stats.high))
        else:
            stats.add(op)
            samples.append(op)
        fresh = GainStats(confidence)
        for sample in samples:
            fresh.add(sample)
        got = (*stats.interval(), stats.half_width(), stats.relative_uncertainty())
        assert _same_floats(
            got, (*fresh.interval(), fresh.half_width(), fresh.relative_uncertainty())
        )
        assert _same_floats(
            got,
            (
                *_interval_oracle(stats),
                _half_width_oracle(stats),
                _relative_uncertainty_oracle(stats),
            ),
        )


# ----------------------------------------------------------------------
# knapsack
def _solve_exact_recursive(order, capacity):
    """``_solve_exact`` as it stood: a recursive search calling a bound
    closure at every node."""
    sizes = [it.size for it in order]
    values = [it.value for it in order]
    n = len(order)

    def bound(pos, room):
        total = 0.0
        for i in range(pos, n):
            if sizes[i] <= room:
                room -= sizes[i]
                total += values[i]
            else:
                total += values[i] * (room / sizes[i])
                break
        return total

    best_value = 0.0
    best_mask = 0
    eps = 1e-9 * max(1.0, capacity)

    def dfs(pos, room, value, mask):
        nonlocal best_value, best_mask
        if value > best_value:
            best_value = value
            best_mask = mask
        if pos >= n or value + bound(pos, room) <= best_value + 1e-12:
            return
        if sizes[pos] <= room + eps:
            dfs(pos + 1, room - sizes[pos], value + values[pos], mask | (1 << pos))
        dfs(pos + 1, room, value, mask)

    dfs(0, capacity, 0.0, 0)
    selected = [order[i] for i in range(n) if best_mask & (1 << i)]
    return selected, best_value


def _search(items, capacity, solve=_solve_exact):
    """``solve_knapsack`` with the branch-and-bound deciding every case."""
    viable = [it for it in items if it.value > 0.0 and 0.0 < it.size <= capacity]
    if not viable or capacity <= 0.0:
        return [], 0.0
    order = sorted(viable, key=lambda it: it.value / it.size, reverse=True)
    return solve(order, capacity)


sizes = st.one_of(st.floats(0.01, 500.0), st.sampled_from([0.1, 0.2, 0.3, 0.7, 0.9]))
values = st.one_of(
    st.floats(-10.0, 1e5),
    st.sampled_from([0.0, 5e-324, 1e-13, 1e-12, 1e-10, 3e-10, 1.0, 1e5]),
)


@given(
    pairs=st.lists(st.tuples(sizes, values), min_size=1, max_size=8),
    fit=st.sampled_from(["exact", "below", "above", "half", "double"]),
)
@settings(max_examples=800, deadline=None)
def test_take_all_exit_is_the_search_result(pairs, fit):
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
    assert solve_knapsack(items, capacity) == _search(items, capacity)  # selection and value


@st.composite
def knapsack_instances(draw):
    """Pools of up to ``MAX_EXACT_ITEMS`` items, and a capacity around a
    subset's size, where the two searches could part: equal densities
    (the bound ties the incumbent), values within 1e-12 of one another
    (the prune tolerance), sizes summing to the capacity within ``eps``
    (the feasibility tolerance), and infinite values."""
    n = draw(st.integers(1, MAX_EXACT_ITEMS))
    item_sizes = draw(st.lists(sizes, min_size=n, max_size=n))
    kind = draw(st.sampled_from(["mixed", "equal_density", "near_tie", "infinite"]))
    if kind == "equal_density":
        density = draw(st.sampled_from([1.0, 0.1, 3.0, 1e-3]))
        item_values = [size * density for size in item_sizes]
    elif kind == "near_tie":
        base = draw(st.floats(0.1, 1e4))
        offsets = st.sampled_from([0.0, 1e-13, -1e-13, 5e-13, 1e-12, -1e-12, 2e-12])
        item_values = [base + draw(offsets) for _ in range(n)]
    else:
        item_values = draw(st.lists(values, min_size=n, max_size=n))
        if kind == "infinite":
            item_values[draw(st.integers(0, n - 1))] = math.inf
    taken = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    total = 0.0
    for size, take in zip(item_sizes, taken):
        if take:
            total += size
    total = max(total, item_sizes[0])
    eps = 1e-9 * max(1.0, total)
    capacity = {
        "exact": total,
        "ulp below": math.nextafter(total, 0.0),
        "ulp above": math.nextafter(total, math.inf),
        "eps below": total - eps,
        "half eps below": total - eps / 2,
        "eps above": total + eps,
        "half": total / 2,
    }[draw(st.sampled_from(
        ["exact", "ulp below", "ulp above", "eps below", "half eps below", "eps above", "half"]
    ))]
    items = [
        KnapsackItem(key=i, size=s, value=v)
        for i, (s, v) in enumerate(zip(item_sizes, item_values))
    ]
    return items, capacity


@given(instance=knapsack_instances())
@settings(deadline=None)
def test_stack_search_equals_the_recursive_search(instance):
    items, capacity = instance
    got = _search(items, capacity)
    want = _search(items, capacity, solve=_solve_exact_recursive)
    assert got == want  # the same items in the same order, the same float


def test_take_all_exit_fires_only_when_everything_fits():
    a, b = KnapsackItem("a", 2.0, 6.0), KnapsackItem("b", 3.0, 3.0)
    assert _take_all([a, b], 5.0) == 9.0
    assert _take_all([a], 2.0) == 6.0
    assert _take_all([a, b], 4.9) is None  # b is left out
    assert _take_all([a, KnapsackItem("c", 1.0, 1e-13)], 5.0) is None


# ----------------------------------------------------------------------
# 2-means
def _two_means_split_oracle(values):
    """``two_means_split`` as it stood: both groups scored at every split."""
    if not values:
        return 0
    if len(values) == 1:
        return 1
    best_split = 1
    best_score = float("inf")
    for split in range(1, len(values)):
        top, bottom = values[:split], values[split:]
        score = _sse_oracle(top) + _sse_oracle(bottom)
        if score < best_score:
            best_score = score
            best_split = split
    return best_split


def _sse_oracle(group):
    mean = sum(group) / len(group)
    return sum([(v - mean) ** 2 for v in group])


# Magnitudes whose squares stay finite (beyond them ``**`` raises in both),
# and the values that do not: inf and NaN square without raising.
split_values = st.lists(
    st.one_of(
        st.floats(-1e150, 1e150),
        st.floats(0.0, 1e4),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-13, 1e150]),
        st.sampled_from([math.inf, -math.inf, math.nan]),
    ),
    max_size=14,
)


@given(values=split_values, descending=st.booleans())
@settings(deadline=None)
def test_two_means_split_equals_the_exhaustive_scoring(values, descending):
    if descending:  # as the close calls it; NaN keeps whatever place it has
        values = sorted(values, key=lambda v: (v != v, -v if v == v else 0.0))
    assert two_means_split(values) == _two_means_split_oracle(values)


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
# candidates: the in-line epoch roll
def _roll_epoch_oracle(stats, epoch_length):
    """``CandidateStats.roll_epoch`` as it stood (one call per candidate)."""
    benefit = stats.epoch_gain / epoch_length
    stats._window.append(benefit)
    stats._idle = stats._idle + 1 if benefit <= 0.0 else 0
    stats.epoch_gain = 0.0
    if stats._smoothed is None:
        stats._smoothed = benefit
    else:
        a = stats._smoothing
        stats._smoothed = a * benefit + (1.0 - a) * stats._smoothed


def _stale_oracle(stats):
    """``CandidateStats.stale`` as it stood."""
    return stats._idle >= stats._window.maxlen


def _stale_by_scan(window):
    """Staleness as a scan of the whole window."""
    return len(window) == window.maxlen and all(b <= 0.0 for b in window)


def _state(stats):
    return (list(stats._window), stats._idle, stats._smoothed, stats.epoch_gain)


@given(
    history_epochs=st.integers(1, 5),
    smoothing=st.sampled_from([0.3, 0.5, 1.0]),
    epochs=st.lists(st.lists(benefits, max_size=3), max_size=40),
    reload_at=st.integers(0, 40),
)
@settings(deadline=None)
def test_inline_roll_equals_the_per_candidate_calls(
    history_epochs, smoothing, epochs, reload_at
):
    index = CATALOG.index_for("lineitem_1", "l_shipdate")
    tracker = CandidateTracker(CATALOG, history_epochs, smoothing)
    tracker.seed([index])
    twin = CandidateStats(index, history_epochs, smoothing)
    window = deque(maxlen=history_epochs)
    for epoch, gains in enumerate(epochs):
        if index not in tracker._stats:  # evicted: a later sighting starts over
            tracker.seed([index])
            twin = CandidateStats(index, history_epochs, smoothing)
            window.clear()
        if epoch == reload_at:  # a snapshot restore adopts the window
            for holder in (tracker._stats, None):
                reloaded = CandidateStats(index, history_epochs, smoothing)
                reloaded.load(list(window), twin.smoothed_benefit)
                if holder is None:
                    twin = reloaded
                else:
                    holder[index] = reloaded
        for gain in gains:
            tracker.stats_for(index).add_gain(gain)
            twin.add_gain(gain)
        stats = tracker.stats_for(index)
        tracker.roll_epoch(10)
        _roll_epoch_oracle(twin, 10)
        window.append(twin._window[-1])
        assert _state(stats) == _state(twin)
        assert _stale_oracle(twin) == _stale_by_scan(window)
        assert (index not in tracker._stats) == _stale_oracle(twin)


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


# ----------------------------------------------------------------------
# the per-index record against the three dicts it replaced
def _report_oracle(profiler, hot, materialized):
    """``Profiler.end_epoch``'s summary as it stood -- its own sort of
    ``H ∪ M``, no exit for an unexposed index -- as ``{key: (low, high,
    measured)}``; read before the real one clears the epoch's state."""
    w = profiler._config.epoch_length
    report = {}
    for index in sorted({*hot, *materialized}, key=lambda ix: ix.name):
        key = (index.table, index.columns)
        measured = profiler._epoch_measured.get(index, {})
        exposure = profiler._epoch_exposure.get(index, {})
        low_total = 0.0
        high_total = 0.0
        n_measured = 0
        any_unmeasured_pair = False
        for cid, count in exposure.items():
            samples = measured.get(cid, ())
            n = len(samples)
            n_measured += n
            pair = profiler._valid_pair(index, cid)
            if pair is not None and pair.gain.count > 0:
                low_bound, high_bound = pair.gain.interval()
            else:
                low_bound = high_bound = 0.0
                any_unmeasured_pair = True
            unmeasured = max(0, count - n)
            sampled = sum(samples)
            low_total += sampled + unmeasured * low_bound
            high_total += sampled + unmeasured * high_bound
        low = low_total / w
        high = high_total / w
        if any_unmeasured_pair:
            crude = profiler._crude_epoch_benefit(index)
            high = max(high, crude)
        report[key] = (low, max(high, low), n_measured)
    return report


class _ThreeDicts:
    """The organizer's per-index state as it stood: ``_history``,
    ``_high_history`` and ``_measured``, each with its own key set."""

    def __init__(self, history_epochs):
        self.h = history_epochs
        self.low, self.high, self.measured = {}, {}, {}

    def record(self, report):  # _record_histories
        for key, (low, high, measured) in report.items():
            self.low.setdefault(key, deque(maxlen=self.h)).append(low)
            self.high.setdefault(key, deque(maxlen=self.h)).append(high)
            self.measured[key] = self.measured.get(key, 0) + measured

    def commit(self, promoted, drops):
        for stats in promoted:  # _select_hot seeds a first optimistic window
            key = (stats.index.table, stats.index.columns)
            if key not in self.high:
                self.high[key] = deque([stats.smoothed_benefit], maxlen=self.h)
        for index in drops:  # the commit forgets a dropped index's windows
            self.low.pop((index.table, index.columns), None)
            self.high.pop((index.table, index.columns), None)

    def sections(self):
        def text(held, value):
            return {f"{t}:{','.join(cols)}": value(v) for (t, cols), v in held.items()}

        return {
            "low": text(self.low, list),
            "high": text(self.high, list),
            "measured": text(self.measured, int),
        }


def _watch(tuner, shadow):
    """Hold each close's digest to the oracle and feed the shadow dicts."""
    organizer, profiler = tuner.self_organizer, tuner.profiler
    digest, close = profiler.end_epoch, organizer.end_epoch

    def end_epoch(tracked):
        report = _report_oracle(profiler, organizer.hot, organizer.materialized)
        digest(tracked)
        # Same indexes, same (name) order, same floats.
        assert [
            ((rec.index.table, rec.index.columns), rec.epoch) for rec in tracked
        ] == list(report.items())
        shadow.record(report)

    def decide(tracked, *args, **kwargs):
        reorg = close(tracked, *args, **kwargs)
        promoted = [profiler.candidates.stats_for(ix) for ix in reorg.hot]
        shadow.commit(promoted, reorg.drop)
        return reorg

    profiler.end_epoch, organizer.end_epoch = end_epoch, decide


SOURCE = build_catalog()  # bound queries replay across identical catalogs
PHASES = [
    shifting_workload([dist], SOURCE, phase_length=30, transition=0, seed=5).queries
    for dist in phase_distributions()
]
_queries_op = st.tuples(
    st.just("queries"), st.integers(0, len(PHASES) - 1), st.integers(1, 30)
)
_record_op = st.one_of(
    _queries_op,
    _queries_op,
    _queries_op,
    st.tuples(
        st.just("insert"),
        st.sampled_from(["lineitem_1", "orders_2", "lineitem_3"]),
        st.integers(1, 200_000),
    ),
    st.just(("restore",)),
)


@given(
    ops=st.lists(_record_op, max_size=30),
    history_epochs=st.sampled_from([2, 4, 12]),
    budget=st.sampled_from([1_500.0, 4_000.0, 12_000.0]),  # tight ones drop
    max_hot=st.sampled_from([2, 12]),  # a small H keeps re-promoting
)
@settings(deadline=None)
def test_index_records_equal_the_three_dicts(ops, history_epochs, budget, max_hot):
    config = ColtConfig(
        epoch_length=5,
        history_epochs=history_epochs,
        min_history_epochs=2,
        storage_budget_pages=budget,
        max_hot_size=max_hot,
    )
    tuner = ColtTuner(build_catalog(), config)
    shadow = _ThreeDicts(history_epochs)
    _watch(tuner, shadow)
    cursor = [0] * len(PHASES)
    for op in ops:
        if op[0] == "insert":
            tuner.process_insert(op[1], count=op[2])
            continue
        if op[0] == "restore":
            stored = json.loads(json.dumps(snapshot_tuner(tuner)))
            tuner = restore_tuner(tuner.catalog, stored)
            _watch(tuner, shadow)
            assert snapshot_tuner(tuner)["histories"] == shadow.sections()
            continue
        _, phase, count = op
        for _ in range(count):
            query = PHASES[phase][cursor[phase] % len(PHASES[phase])]
            cursor[phase] += 1
            if not tuner.process_query(query).epoch_ended:
                continue
            organizer = tuner.self_organizer
            assert snapshot_tuner(tuner)["histories"] == shadow.sections()
            for rec in organizer.records():
                for window in (rec.low, rec.high):
                    if window is not None:
                        assert window.nonzero == sum(
                            1 for value in window.values() if value != 0.0
                        )
            # What the next boundary starts from: H ∪ M by name, flagged,
            # costed as the catalog costs them now (inserts moved rows).
            tracked = organizer.tracked()
            members = {*organizer.hot, *organizer.materialized}
            assert [rec.index for rec in tracked] == sorted(members, key=str)
            for rec in tracked:
                assert rec is organizer.record(rec.index)
                assert rec.hot == (rec.index in organizer.hot)
                assert rec.held == (rec.index in organizer.materialized)
                assert rec.costing == tuner.catalog.index_costing(rec.index)


# ----------------------------------------------------------------------
# the no-op exits of ``TuningLoop._apply`` and the scheduler
def _apply_oracle(self, reorg):
    """``TuningLoop._apply`` as it stood: every step at every boundary."""
    retry = self.scheduler.advance_epoch()
    build_cost = retry.charged
    for index in retry.recovered:
        self.materialized.add(index)
    build_cost += self.scheduler.request_materialization(reorg.materialize)
    self.scheduler.request_drop(reorg.drop)
    if self.guardrails is not None and reorg.drop:
        self.guardrails.on_drop(reorg.drop)
    failed = [ix for ix in reorg.materialize if not self.catalog.is_materialized(ix)]
    for index in failed:
        self.materialized.discard(index)
    reorg.build_failures = failed
    reorg.recovered_builds = list(retry.recovered)
    reorg.abandoned_builds = list(retry.abandoned)
    reorg.breaker_state = self.profiler.breaker.state.value
    self._applied(reorg, bool(reorg.materialize or reorg.drop or retry.recovered))
    return build_cost


def _advance_epoch_oracle(self):
    """``Scheduler.advance_epoch`` as it stood: the queue scanned, empty or not."""
    self._epoch += 1
    report = RetryReport()
    due = [f for f in self.retry_queue if f.next_retry_epoch <= self._epoch]
    for entry in due:
        self.retry_queue.remove(entry)
        if self._catalog.is_materialized(entry.index):
            continue
        try:
            report.charged += self._build(entry.index)
        except IndexBuildError as exc:
            self.failure_count += 1
            entry.attempts += 1
            entry.error = str(exc)
            if self._retry.exhausted(entry.attempts):
                self.abandoned.append(entry)
                report.abandoned.append(entry.index)
            else:
                entry.next_retry_epoch = self._epoch + self._retry.delay_for(
                    entry.attempts
                )
                self.retry_queue.append(entry)
        else:
            report.recovered.append(entry.index)
    return report


def _as_it_stood(scheduler):
    scheduler.advance_epoch = types.MethodType(_advance_epoch_oracle, scheduler)


def _scheduler_state(scheduler):
    def failed(entries):
        return [(f.index, f.attempts, f.next_retry_epoch, f.error) for f in entries]

    return (
        scheduler.epoch,
        failed(scheduler.retry_queue),
        failed(scheduler.abandoned),
        scheduler.failure_count,
        scheduler.total_build_cost,
        [(b.index, b.cost) for b in scheduler.builds],
        sorted(scheduler._catalog.materialized_indexes(), key=str),
    )


_retry_policies = st.builds(
    RetryPolicy,
    base_delay_epochs=st.integers(1, 2),
    max_delay_epochs=st.integers(2, 4),
    max_attempts=st.integers(1, 4),
)


# Heavy writes retire an index with nothing built in its place: the one
# boundary that drops without adding.
_write_op = st.tuples(
    st.just("insert"),
    st.sampled_from([f"lineitem_{i}" for i in (1, 2, 3, 4)]),
    st.just(400_000),
)


@given(
    ops=st.lists(st.one_of(_queries_op, _queries_op, _write_op), max_size=16),
    probability=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
    fault_seed=st.integers(0, 3),
    retry=_retry_policies,
)
@settings(deadline=None)
def test_apply_exits_equal_the_full_protocol(ops, probability, fault_seed, retry):
    def build():
        faults = FaultInjector(
            FaultPlan(build=FaultSpec(probability=probability)), seed=fault_seed
        )
        config = ColtConfig(epoch_length=5, min_history_epochs=2, storage_budget_pages=4_000.0)
        tuner = ColtTuner(build_catalog(), config)
        tuner.scheduler = Scheduler(tuner.catalog, retry=retry)
        faults.attach(tuner)
        return tuner

    got, want = build(), build()
    want._apply = types.MethodType(_apply_oracle, want)
    _as_it_stood(want.scheduler)
    cursor = [0] * len(PHASES)
    for kind, phase, count in ops:
        if kind == "insert":
            for tuner in (got, want):
                tuner.process_insert(phase, count=count)
            continue
        for _ in range(count):
            query = PHASES[phase][cursor[phase] % len(PHASES[phase])]
            cursor[phase] += 1
            a, b = got.process_query(query), want.process_query(query)
            assert (a.total_cost, a.build_cost) == (b.total_cost, b.build_cost)
            if not a.epoch_ended:
                continue
            assert a.reorganization == b.reorganization  # every ledger field
            assert _scheduler_state(got.scheduler) == _scheduler_state(want.scheduler)
            assert got.materialized == want.materialized
    assert _comparable(got.metrics_snapshot()) == _comparable(want.metrics_snapshot())


_picks = st.lists(st.integers(0, 4), max_size=4)
_scheduler_op = st.one_of(
    st.tuples(st.just("build"), _picks),
    st.tuples(st.just("drop"), _picks),
    st.tuples(st.just("advance"), st.just([])),
    st.tuples(st.just("advance"), st.just([])),
)


@given(
    ops=st.lists(_scheduler_op, max_size=40),
    failing=st.lists(st.booleans(), max_size=40),
    retry=_retry_policies,
)
@settings(deadline=None)
def test_scheduler_exits_equal_the_full_protocol(ops, failing, retry):
    """Also with the requests passed as one-shot generators, which an
    ``if not indexes`` exit would get wrong."""

    def build():
        outcomes = iter(failing)

        def failpoint(index):
            if next(outcomes, False):
                raise IndexBuildError(f"injected failure building {index}")

        catalog = build_catalog()
        scheduler = Scheduler(catalog, retry=retry, failpoint=failpoint)
        columns = ("l_shipdate", "l_commitdate", "l_receiptdate", "l_quantity", "l_discount")
        return scheduler, [catalog.index_for("lineitem_1", c) for c in columns]

    (got, got_indexes), (want, want_indexes) = build(), build()
    _as_it_stood(want)
    for op, picks in ops:
        if op == "build":
            charged = got.request_materialization(got_indexes[i] for i in picks)
            assert charged == want.request_materialization([want_indexes[i] for i in picks])
        elif op == "drop":
            got.request_drop(got_indexes[i] for i in picks)
            want.request_drop([want_indexes[i] for i in picks])
        else:
            assert got.advance_epoch() == want.advance_epoch()
        assert _scheduler_state(got) == _scheduler_state(want)
