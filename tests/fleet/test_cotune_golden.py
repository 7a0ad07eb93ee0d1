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

When a change *intentionally* alters co-tuning behaviour, regenerate:

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest \
        tests/fleet/test_cotune_golden.py -q
"""

import json
import os
import pathlib

import pytest

from repro.core.config import ColtConfig
from repro.fleet import FleetCoordinator
from repro.workload import build_catalog, multi_client_shifting_workload
from repro.workload.experiments import phase_distributions

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


def _cotuned_run():
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
    return _cotuned_run()


def test_golden_exists_or_regenerates(document):
    if os.environ.get("GOLDEN_REGEN") == "1":
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(document, indent=1) + "\n")
    assert GOLDEN_PATH.exists(), (
        "co-tuned fleet golden trace missing -- regenerate with "
        "GOLDEN_REGEN=1 (see module docstring)"
    )


def test_partition_history_matches_golden(document):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert len(document["history"]) == len(golden["history"])
    for current, pinned in zip(document["history"], golden["history"]):
        label = f"boundary {pinned['epoch']}"
        for key in pinned:
            if key in _FLOAT_KEYS:
                assert current[key] == pytest.approx(
                    pinned[key], rel=1e-12
                ), label
            else:
                # The partition assignment map, migrations, probes,
                # and the convergence flag: exact.
                assert current[key] == pinned[key], (label, key)


def test_costs_and_routing_match_golden(document):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert document["workload"] == golden["workload"]
    assert document["queries_per_replica"] == golden["queries_per_replica"]
    assert document["whatif_calls"] == golden["whatif_calls"]
    for key in ("execution_cost", "routing_overhead", "total_cost"):
        assert document[key] == pytest.approx(golden[key], rel=1e-12), key


def test_final_state_matches_golden(document):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert document["materialized"] == golden["materialized"]
    assert document["converged"] == golden["converged"]
    assert document["migrations_total"] == golden["migrations_total"]
