"""Golden-trace regression pin for the co-tuned fleet.

A 3-client shifting workload (the ``fleet-run`` CLI shape, scaled
down) is driven through a co-tuned affinity fleet and compared against
``tests/data/golden_fleet_cotune.json``: the fleet cost totals, the
per-replica routing split, every boundary's partition-assignment
history (which signature lived on which replica, migrations, probes,
convergence), and the final per-replica materialized sets.  Any change
to the partitioner, the hysteresis rule, the probe budget, advisory
synthesis, or the underlying tuners that shifts one co-tuning decision
fails loudly with the first diverging boundary.

The file is re-recorded, and a change to it explained boundary by
boundary, by the one tool for every decision-pinned file:

    PYTHONPATH=src python tools/regen_pinned.py --only golden_fleet_cotune

(add ``--write`` only for an intended behaviour change).
"""

import json
import pathlib

import pytest

from repro.core.config import ColtConfig
from repro.fleet import FleetCoordinator
from repro.workload import build_catalog, multi_client_shifting_workload
from repro.workload.experiments import phase_distributions

from tests.decision_diff import Diff, totals, value, walk_epochs

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "data" / "golden_fleet_cotune.json"
)

N_REPLICAS = 3
PHASE_LENGTH = 40
TRANSITION = 10
FLEET_EPOCH = 20
BUDGET_PAGES = 9_000.0
SEED = 11

#: History fields that hold floats (JSON round-trip -> approx compare).
_FLOAT_KEYS = ("cost_per_query",)
#: Fleet totals: exact, but the costs (floats) within 1e-12.
_EXACT_KEYS = ("workload", "queries_per_replica", "whatif_calls")
_COST_KEYS = ("execution_cost", "routing_overhead", "total_cost")
_FINAL_KEYS = ("materialized", "converged", "migrations_total")


def cotuned_run():
    merged = multi_client_shifting_workload(
        phase_distributions(),
        build_catalog(),
        N_REPLICAS,
        phase_length=PHASE_LENGTH,
        transition=TRANSITION,
        seed=SEED,
    )
    fleet = FleetCoordinator(
        build_catalog,
        n_replicas=N_REPLICAS,
        config=ColtConfig(storage_budget_pages=BUDGET_PAGES),
        policy="affinity",
        fleet_epoch_length=FLEET_EPOCH,
        cotune=True,
    )
    run = fleet.run(merged)
    return {
        "workload": merged.description,
        "execution_cost": run.execution_cost,
        "routing_overhead": run.routing_overhead,
        "total_cost": run.total_cost,
        "queries_per_replica": list(run.queries_per_replica),
        "whatif_calls": sum(o.outcome.whatif_calls for o in run.outcomes),
        "materialized": [
            sorted(r.materialized_names) for r in fleet.replicas
        ],
        "converged": fleet.cotune.converged,
        "migrations_total": fleet.cotune.migrations_total,
        "history": list(fleet.cotune.history),
    }


@pytest.fixture(scope="module")
def document():
    return cotuned_run()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_exists_or_regenerates():
    assert GOLDEN_PATH.exists(), (
        "co-tuned fleet golden trace missing -- re-record with "
        "tools/regen_pinned.py --only golden_fleet_cotune --write "
        "(see module docstring)"
    )


def history_differences(document, golden) -> Diff:
    """Every boundary's partition history, over the keys the golden holds.

    The partition assignment map, migrations, probes and the convergence
    flag exactly; the float keys within 1e-12 (JSON round trip).
    """
    diff = Diff()

    def changes(current, pinned):
        return [_moved(diff, current, pinned, key, _FLOAT_KEYS) for key in pinned]

    walk_epochs(
        diff, document["history"], golden["history"], changes, lambda i, row: row["epoch"]
    )
    return diff


def _moved(diff, current, pinned, key, float_keys):
    if key in float_keys:
        same = diff.near(current[key], pinned[key], 1e-12)
    else:
        same = current[key] == pinned[key]
    return None if same else value(key, current[key], pinned[key])


def cost_differences(document, golden) -> Diff:
    """Workload, routing split and what-if calls exact; costs within 1e-12."""
    diff = Diff()
    moved = [_moved(diff, document, golden, key, _COST_KEYS) for key in _EXACT_KEYS + _COST_KEYS]
    moved = [change for change in moved if change]
    if moved:
        diff.lines += moved + totals(
            document["total_cost"],
            golden["total_cost"],
            "what-if calls",
            document["whatif_calls"],
            golden["whatif_calls"],
        )
    return diff


def final_differences(document, golden) -> Diff:
    """The final per-replica designs, convergence and migration count, exact."""
    diff = Diff()
    moved = [_moved(diff, document, golden, key, ()) for key in _FINAL_KEYS]
    diff.lines = [change for change in moved if change]
    return diff


def differences(document, golden) -> Diff:
    """The three comparisons above, as one diff."""
    diff = Diff()
    diff.add("history", history_differences(document, golden))
    diff.add("costs", cost_differences(document, golden))
    diff.add("final", final_differences(document, golden))
    return diff


def test_partition_history_matches_golden(document, golden):
    assert history_differences(document, golden).lines == []


def test_costs_and_routing_match_golden(document, golden):
    assert cost_differences(document, golden).lines == []


def test_final_state_matches_golden(document, golden):
    assert final_differences(document, golden).lines == []
