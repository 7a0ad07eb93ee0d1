"""Verification math: ratios, windows, trivial verdicts, observers."""

import pytest

from repro.guardrails.verify import (
    MIN_PREDICTED_FRACTION,
    QUARANTINE_RATIO,
    VERIFY_WINDOW,
    IndexVerifier,
    Observation,
    PlanCostObserver,
    Verdict,
)
from tests.fleet.workloads import build_small_catalog


def _index():
    return build_small_catalog().index_for("events", "user_id")


def _obs(p_with, p_without, o_with, o_without):
    return Observation(
        predicted_with=p_with,
        predicted_without=p_without,
        observed_with=o_with,
        observed_without=o_without,
    )


def _state(verifier, index):
    (state,) = [s for s in verifier.states if s.index == index]
    return state


def _record(verifier, index, observation, times=VERIFY_WINDOW):
    """Fold ``observation`` in ``times`` times; the last state."""
    for _ in range(times):
        state = verifier.record(index, observation)
    return state


def test_verdict_waits_for_window():
    verifier = IndexVerifier()
    index = _index()
    for _ in range(VERIFY_WINDOW - 1):
        state = verifier.record(index, _obs(10.0, 100.0, 10.0, 100.0))
        assert state.verdict is Verdict.PENDING
    state = verifier.record(index, _obs(10.0, 100.0, 10.0, 100.0))
    assert state.verdict is Verdict.VERIFIED
    assert state.ratio == pytest.approx(1.0)


def test_regressed_when_observed_falls_short():
    verifier = IndexVerifier()
    # Predicted 90% savings; observed 10% savings -> ratio ~0.11.
    state = _record(verifier, _index(), _obs(10.0, 100.0, 90.0, 100.0))
    assert state.verdict is Verdict.REGRESSED
    assert state.ratio == pytest.approx((10.0 / 100.0) / (90.0 / 100.0))
    assert state.ratio < QUARANTINE_RATIO


def test_ratio_is_scale_free():
    """Observer units differ from optimizer units; ratio is unaffected."""
    verifier = IndexVerifier()
    # Observed costs are 1000x smaller but save the same fraction.
    state = _record(verifier, _index(), _obs(20.0, 100.0, 0.02, 0.1))
    assert state.ratio == pytest.approx(1.0)
    assert state.verdict is Verdict.VERIFIED


def test_negligible_promise_is_trivially_verified():
    verifier = IndexVerifier()
    # Predicted savings 0.1% -- below the promise floor.
    assert 0.001 < MIN_PREDICTED_FRACTION
    state = _record(verifier, _index(), _obs(99.9, 100.0, 200.0, 100.0))
    assert state.ratio is None
    assert state.verdict is Verdict.VERIFIED


def test_negative_observed_gain_regresses():
    verifier = IndexVerifier()
    # The index plan was observed *worse* than the seq scan.
    state = _record(verifier, _index(), _obs(10.0, 100.0, 150.0, 100.0))
    assert state.ratio < 0.0
    assert state.verdict is Verdict.REGRESSED


def test_reset_forgets_evidence():
    verifier = IndexVerifier()
    index = _index()
    _record(verifier, index, _obs(10.0, 100.0, 10.0, 100.0))
    assert verifier.verdict_for(index) is Verdict.VERIFIED
    verifier.reset(index)
    assert verifier.verdict_for(index) is Verdict.PENDING
    assert verifier.needs_samples(index)


def test_snapshot_round_trip():
    catalog = build_small_catalog()
    verifier = IndexVerifier()
    index = catalog.index_for("events", "user_id")
    _record(verifier, index, _obs(10.0, 100.0, 50.0, 100.0))

    restored = IndexVerifier()
    restored.restore(verifier.to_snapshot(), build_small_catalog())
    state = _state(restored, index)
    assert state.samples == VERIFY_WINDOW
    assert state.verdict is _state(verifier, index).verdict
    assert state.ratio == pytest.approx(_state(verifier, index).ratio)


def test_plan_cost_observer_mirrors_predictions():
    observation = PlanCostObserver().observe(None, None, 12.5, 80.0)
    assert observation.observed_with == 12.5
    assert observation.observed_without == 80.0
    assert observation.charge == 0.0

