"""Scoreboard pin: ``run_scenario`` reproduces ``BENCH_bandit.json``.

The ``drift`` scenario's ``colt``, ``bandit`` and ``none`` arms are
re-run and every recorded field of their ``to_dict()`` is compared exactly:
observed cost, tuning overhead, the cumulative curve and the final
design.  Fields added to :class:`ScenarioResult` after the recording
(``NEW_KEYS``) are left out of the comparison.
"""

import json
import pathlib

import pytest

from repro.bench.scenario import curve_is_sane, run_scenario
from repro.workload.adversarial import build_drift_scenario

BENCH_FILE = pathlib.Path(__file__).resolve().parents[2] / "BENCH_bandit.json"

#: ``ScenarioResult`` fields the recording predates.
NEW_KEYS = ("verify_overhead", "first_quarantine_query")


@pytest.mark.parametrize("engine", ["colt", "bandit", "none"])
def test_drift_arm_matches_recording(engine):
    recorded = json.loads(BENCH_FILE.read_text())["drift"]
    result = run_scenario(
        engine,
        build_drift_scenario(),
        epoch_length=recorded["epoch_length"],
        storage_budget_pages=recorded["budget_pages"],
    ).to_dict()
    expected = {
        key: value
        for key, value in recorded["arms"][engine].items()
        if key not in NEW_KEYS
    }
    assert {key: result[key] for key in expected} == expected
    assert set(result) - set(expected) <= set(NEW_KEYS)


@pytest.mark.parametrize(
    "curve, sane",
    [
        ([1.0, 2.0, 2.0], True),
        ([0.0, 1.0, 1.0 - 1e-12], True),  # float noise in a running sum
        ([], False),
        ([-1.0, 0.0], False),
        ([2.0, 1.0], False),
        ([1.0, float("nan")], False),
        ([1.0, float("inf")], False),
    ],
)
def test_curve_is_sane(curve, sane):
    assert curve_is_sane(curve) is sane
