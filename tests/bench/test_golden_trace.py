"""Golden-trace regression pin for the seeded Figure-4 tuner run.

A small (270-query) Figure-4-shaped workload is traced end to end and
compared epoch-by-epoch against ``tests/data/golden_trace.json``: the
chosen materialized set, the boundary adds/drops, the hot set, the
granted what-if budget, the improvement ratio, and the costs.  Any
change to profiling, re-budgeting, the knapsack, or the scheduler that
shifts a single decision fails loudly with the first diverging epoch.
The same workload through the bandit engine is pinned the same way in
``tests/data/golden_bandit_trace.json`` (reward probes, ridge updates,
super-arm selection, safety fallback).

Both files are re-recorded, and a change to them explained epoch by
epoch, by the one tool for every decision-pinned file:

    PYTHONPATH=src python tools/regen_pinned.py --only golden_trace golden_bandit_trace

(add ``--write`` only for an intended behaviour change).
"""

import json
import pathlib

import pytest

from repro.bench.tracing import TunerTrace, trace_run
from repro.core import ColtConfig
from repro.workload.datagen import build_catalog
from repro.workload.experiments import phase_distributions
from repro.workload.phases import shifting_workload

from tests.decision_diff import trace_diff

GOLDEN_PATH = pathlib.Path(__file__).parent.parent / "data" / "golden_trace.json"
GOLDEN_BANDIT_PATH = GOLDEN_PATH.with_name("golden_bandit_trace.json")

PHASE_LENGTH = 60
TRANSITION = 10
BUDGET_PAGES = 9_000.0
SEED = 0


def traced_run(engine="colt"):
    catalog = build_catalog()
    workload = shifting_workload(
        phase_distributions(),
        catalog,
        phase_length=PHASE_LENGTH,
        transition=TRANSITION,
        seed=SEED,
    )
    config = ColtConfig(storage_budget_pages=BUDGET_PAGES, seed=SEED)
    return trace_run(catalog, workload.queries, config, engine=engine)


@pytest.fixture(scope="module")
def trace():
    return traced_run()


@pytest.fixture(scope="module")
def bandit_trace():
    return traced_run("bandit")


def _exists(path):
    assert path.exists(), (
        f"golden trace missing -- re-record with tools/regen_pinned.py "
        f"--only {path.stem} --write (see module docstring)"
    )


def test_golden_trace_exists_or_regenerates():
    _exists(GOLDEN_PATH)


def test_golden_bandit_trace_exists_or_regenerates():
    _exists(GOLDEN_BANDIT_PATH)


def test_trace_matches_golden(trace):
    assert trace_diff(trace, TunerTrace.from_json(GOLDEN_PATH.read_text())).lines == []


def test_bandit_trace_matches_golden(bandit_trace):
    golden = TunerTrace.from_json(GOLDEN_BANDIT_PATH.read_text())
    assert golden.engine == "bandit"
    assert trace_diff(bandit_trace, golden).lines == []
    # The bandit pin must actually exercise decisions, not an idle run.
    assert sum(len(e.added) for e in golden.epochs) >= 5
    assert sum(len(e.dropped) for e in golden.epochs) >= 5
    assert golden.total_whatif > 0


def test_total_cost_matches_golden(trace):
    golden = TunerTrace.from_json(GOLDEN_PATH.read_text())
    assert trace.total_cost == pytest.approx(golden.total_cost, rel=1e-12)
    assert trace.total_whatif == golden.total_whatif


def test_golden_config_round_trips_current_fields(trace):
    # from_json rebuilds ColtConfig(**data["config"]): the pinned file
    # must carry every current config field (catches forgotten
    # regeneration after a config-schema change).
    golden = json.loads(GOLDEN_PATH.read_text())
    import dataclasses

    current_fields = {f.name for f in dataclasses.fields(ColtConfig)}
    assert set(golden["config"]) == current_fields
