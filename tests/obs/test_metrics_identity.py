"""Metric identity across a restructure of the per-query instrumentation.

Binding label sets once, and reading totals and a gauge their owners
already keep when the family is read instead of updating a collector on
every query, must not move a single sample.  Three runs of the system benchmark's
``shift_cyclic`` base (2 shifting clients, 440 bound queries, cycled to
2 000 arrivals) are therefore pinned family by family in
``tests/data/metrics_identity.json``: COLT, the bandit, and a 2-replica
in-process fleet (client routing, ten fleet boundaries, per-replica
families merged under the ``replica`` label).

Every counter, gauge and cost-histogram sample is compared exactly;
wall-clock histograms (``*_seconds``) by ``count`` only.  The file was
recorded on CPython 3.11, on the commit *before* the instrumentation was
restructured, and stays the reference: the catalog audit that deleted
the families copying a result object's numbers only took their entries
out, every surviving entry as recorded and in its order.  From 3.12 built-in ``sum`` over
floats is compensated, which moves the last digits of sums the bandit
feeds its histograms (not a count, not a decision): there, floats are
held within ``FLOAT_REL`` and everything else exactly, as
``tests/core/test_close_identity.py`` does for its ratios.  Only an
intended metric change re-records the file, through the one tool for
every decision-pinned file:

    PYTHONPATH=src python tools/regen_pinned.py --only metrics_identity

It prints, per run, the families that are gone, new, reordered or
moved (the first differing sample of each) -- a deletion reads as
"gone", with every other family as recorded and in order -- and
``--write`` writes the file.
"""

import itertools
import json
import pathlib
import sys

import pytest

from repro.engines import engine_spec
from repro.fleet import FleetCoordinator
from repro.workload import build_catalog

from tests.core.test_close_identity import shifting_workload_base
from tests.decision_diff import SHOWN, Diff, json_diff

DATA_PATH = pathlib.Path(__file__).parent.parent / "data" / "metrics_identity.json"
SEED = 0
ARRIVALS = 2000
FLOAT_REL = 1e-9


def _shifting_base():
    # Bound queries replay across identical catalogs.
    return shifting_workload_base(build_catalog(), SEED)


def _cycled(items):
    return list(itertools.islice(itertools.cycle(items), ARRIVALS))


def _tuner(engine):
    base = _shifting_base()
    # Default-constructed, as the benchmark's workloads build them.
    tuner = engine_spec(engine).tuner(build_catalog())
    for query in _cycled(base.queries):
        tuner.process_query(query)
    return tuner.metrics_snapshot()


def _fleet():
    base = _shifting_base()
    fleet = FleetCoordinator(
        build_catalog, n_replicas=2, policy="client", fleet_epoch_length=200
    )
    fleet.run(_cycled(base.queries), client_ids=_cycled(base.client_ids))
    return fleet.metrics_snapshot()


SCENARIOS = {
    "colt": lambda: _tuner("colt"),
    "bandit": lambda: _tuner("bandit"),
    "fleet": _fleet,
}


def _comparable(snapshot):
    """The snapshot's families with wall-clock samples reduced to counts."""
    families = []
    for family in snapshot["metrics"]:
        if family["type"] == "histogram" and family["name"].endswith("_seconds"):
            family = dict(
                family,
                samples=[
                    {"labels": s["labels"], "count": s["count"]}
                    for s in family["samples"]
                ],
            )
        families.append(family)
    # Through JSON once, as the recording went (tuples become lists).
    return json.loads(json.dumps(families))


def dump(recorded) -> str:
    """One family per line: a diff of the file names the family that moved."""
    parts = []
    for name, families in recorded.items():
        rows = ",\n".join(
            "  " + json.dumps(family, separators=(",", ":"), sort_keys=True)
            for family in families
        )
        parts.append(f' "{name}": [\n{rows}\n ]')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def differences(got, want) -> Diff:
    """One run's families against the recording: names and order exactly.

    Samples exactly below CPython 3.12, floats within ``FLOAT_REL`` from
    it (the recording's ``sum`` is 3.11's).
    """
    rel = None if sys.version_info < (3, 12) else FLOAT_REL
    diff = Diff()
    have = [f["name"] for f in got]
    had = [f["name"] for f in want]
    kept = [name for name in had if name in have]
    for word, names in (("gone", set(had) - set(have)), ("new", set(have) - set(had))):
        if names:
            diff.lines.append(f"families {word}: " + ", ".join(sorted(names)))
    if [name for name in have if name in had] != kept:
        diff.lines.append("families reordered")
    now = {f["name"]: f for f in got}
    moved = []
    for family in want:
        if family["name"] in now:
            sample = json_diff(now[family["name"]], family, rel)
            diff.tolerated += sample.tolerated
            if sample.lines:
                moved.append(f"{family['name']} moved: {sample.lines[0]}")
    diff.lines += moved[:SHOWN]
    if len(moved) > SHOWN:
        diff.lines.append(f"... and {len(moved) - SHOWN} more moved families")
    elif not moved and diff.lines:
        diff.lines.append(f"the other {len(kept)} families as recorded")
    return diff


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA_PATH.read_text())


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_sample_matches_the_recorded_run(pinned, scenario):
    got = _comparable(SCENARIOS[scenario]())
    assert differences(got, pinned[scenario]).lines == []


def test_the_recording_covers_the_per_query_families(pinned):
    """The pin is only worth its bytes if the hot-path families have samples."""

    def value(scenario, name, **labels):
        (family,) = [f for f in pinned[scenario] if f["name"] == name]
        (sample,) = [s for s in family["samples"] if s["labels"] == labels]
        return sample.get("value", sample.get("count"))

    assert value("colt", "colt_queries_total") == ARRIVALS
    assert value("colt", "colt_query_cost") == ARRIVALS
    assert value("colt", "colt_whatif_calls_total") > 0
    assert value("colt", "profiler_clusters") > 0
    assert value("colt", "backend_optimize_calls_total", backend="local") > ARRIVALS
    assert value("colt", "colt_epochs_total") == ARRIVALS // 10
    assert value("bandit", "bandit_queries_total") == ARRIVALS
    # Past one base pricing per arrival: the reward probes' calls.
    assert value("bandit", "backend_optimize_calls_total", backend="local") > ARRIVALS
    routed = [
        value("fleet", "fleet_queries_routed_total", replica=str(i)) for i in range(2)
    ]
    assert sum(routed) == ARRIVALS and min(routed) > 0
    assert value("fleet", "colt_queries_total", replica="0") == routed[0]
    assert value("fleet", "colt_epochs_total", replica="1") == routed[1] // 10
