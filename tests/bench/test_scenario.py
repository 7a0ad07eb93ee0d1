"""Scoreboard pin: ``run_scenario`` reproduces ``BENCH_bandit.json``.

The ``drift`` scenario's ``colt``, ``bandit`` and ``none`` arms are
re-run and every recorded field of their ``to_dict()`` is compared exactly:
observed cost, tuning overhead, the cumulative curve and the final
design.  Fields added to :class:`ScenarioResult` after the recording
(``NEW_KEYS``) are left out of the comparison.  The ``drift`` entry is
re-recorded, from the regret benchmark's own per-scenario payload, by
the one tool for every decision-pinned file:

    PYTHONPATH=src python tools/regen_pinned.py --only drift
"""

import json
import pathlib

import pytest

from repro.bench.scenario import curve_is_sane, run_scenario
from repro.workload.adversarial import build_drift_scenario, build_htap_scenario

from tests.decision_diff import Diff, json_diff

BENCH_FILE = pathlib.Path(__file__).resolve().parents[2] / "BENCH_bandit.json"

#: ``ScenarioResult`` fields the recording predates.
NEW_KEYS = ("verify_overhead", "first_quarantine_query")


def arm_differences(result: dict, recorded: dict) -> Diff:
    """One arm's ``to_dict()`` against its recording, exactly, bar ``NEW_KEYS``."""
    expected = {key: value for key, value in recorded.items() if key not in NEW_KEYS}
    diff = json_diff({key: value for key, value in result.items() if key in expected}, expected)
    extra = sorted(set(result) - set(expected) - set(NEW_KEYS))
    if extra:
        diff.lines.append("fields new: " + ", ".join(extra))
    return diff


@pytest.mark.parametrize("engine", ["colt", "bandit", "none"])
def test_drift_arm_matches_recording(engine):
    recorded = json.loads(BENCH_FILE.read_text())["drift"]
    result = run_scenario(
        engine,
        build_drift_scenario(),
        epoch_length=recorded["epoch_length"],
        storage_budget_pages=recorded["budget_pages"],
    ).to_dict()
    assert arm_differences(result, recorded["arms"][engine]).lines == []
    # The curve ends at the total, so a sane curve means a finite cost.
    assert result["curve"][-1] == result["observed_cost"]


def test_curve_ends_with_a_partial_interval():
    # 37 queries at a stride of 20: the last sample closes a partial
    # interval and must still land on the run's total.
    result = run_scenario("colt", build_htap_scenario(length=60))
    assert result.queries % result.sample_every != 0
    assert len(result.curve) == -(-result.queries // result.sample_every)
    assert result.curve[-1] == result.observed_cost
    assert curve_is_sane(result.curve)


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
