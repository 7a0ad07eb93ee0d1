"""Decision identity of the epoch close over long streams.

The 270-query golden traces close 27 epochs; a restructure of the close
(``Profiler.end_epoch`` -> ``SelfOrganizer.end_epoch`` ->
``TuningLoop._apply``, and the bandit's ``_select``) needs more than
that to trip over a set-order leak or a one-ulp forecast drift.  Ten
streams are therefore pinned epoch by epoch in
``tests/data/close_identity.json``:

* ``colt_shift`` / ``bandit_shift`` -- the ``shift_cyclic`` base of the
  system benchmark (2 shifting clients, 440 bound queries) cycled ten
  times through each engine: 440 closes with rapid shifts;
* ``colt_htap`` -- four cycles of the same base with every 4th event a
  50-row insert (statistics-only, rotating over four indexed tables):
  the write-aware charge, per-table write windows and index costings
  that go stale with every row-count change;
* ``colt_constrained`` -- the shifting stream under DBA advice that
  pins a popular and a never-mined index, bans the most selected one and
  prefers two others: ``solve_constrained`` and the pinned pool rows;
* ``colt_faults`` -- the shifting stream with every other build attempt
  failing on average (seeded) under a three-attempt retry policy: failed
  builds leaving ``M``, backed-off retries recovering or being abandoned,
  a retry queue that is rarely empty at a boundary;
* ``colt_adaptive_composite`` -- ``adaptive_forecast_window`` and
  ``composite_candidates`` on, over a stream that moves both: two-predicate
  queries (an equality plus a range per table) with 40-query noise bursts,
  534 queries cycled to 440 closes -- two-column rows in the boundary
  table, 28 short-tenure drops and a forecast horizon wandering 12..24;
* ``colt_restored`` -- the shifting stream through a tuner restored from
  ``tests/data/parent_snapshot.json``, the snapshot the recording commit
  took after the 2 000-arrival run of ``tests/obs/test_metrics_identity.py``
  (its ``config`` block still carries whatever fields that commit had);
* ``bandit_constrained`` -- the shifting stream through the bandit under
  the same DBA advice and guardrails plus a pushed advisory naming a
  DBA-banned, a DBA-preferred and a fresh index, with the safety stage
  tripping: every source of the close's rulings at once;
* ``bandit_restored`` -- the shifting stream through a bandit restored
  from ``tests/data/parent_bandit_snapshot.json``, taken 2 450 arrivals
  into ``bandit_shift`` with live safety bans and a watched change;
* ``colt_advice_restored`` -- the shifting stream through a COLT tuner
  restored from ``tests/data/parent_advice_snapshot.json``, written when
  DBA advice still lived in the guardrail block of a snapshot.

Each epoch row is ``[materialize, drop, hot, whatif_budget,
repr(improvement_ratio)]``, in ``colt_faults`` followed by
``[build_failures, recovered_builds, abandoned_builds]``.  The decision
fields and the summed ``total_cost`` are compared exactly, everywhere.  The ratio is compared
by ``repr`` (bit-exact) only where the recording's arithmetic still
applies -- the COLT scenarios on CPython < 3.12 -- and within
``RATIO_REL`` otherwise: built-in ``sum`` over floats is compensated
from 3.12 (both engines sum into the ratio), and the bandit's ridge
model factors ``V`` (Cholesky) where the recording inverted it
(Gauss-Jordan), which moves ``bandit_shift`` ratios by up to 4.8e-13
relative without moving a decision.  The file was recorded on CPython
3.11, on the commit *before* the close was restructured (the last three
scenarios and the snapshot on the parent of the commit that gave the
close one record per tracked index; the three after them, and their
snapshots, on the parent of the commit that merged the close's
constraint sources into one list of rulings), and stays the reference
newer arithmetic is held against.  Only an intended behaviour change
re-records it, through the one tool for every decision-pinned file,
which first prints what moved (the first divergent close, the changed
decisions, the cost and what-if deltas):

    PYTHONPATH=src python tools/regen_pinned.py --only close_identity

(``--only colt_faults colt_restored`` re-records only the named
scenarios and leaves the other recordings as they are; ``--write``
writes the file.)  The ``tests/data/parent_*snapshot.json`` files the
``*_restored`` scenarios start from are restore fixtures, not
recordings: each was copied by hand from the commit named above, and
nothing re-records them.
"""

import itertools
import json
import pathlib
import sys

import pytest

from repro.bandit.persist import restore_bandit_tuner
from repro.core.config import ColtConfig
from repro.core.knapsack import Ruling
from repro.core.scheduler import Scheduler
from repro.engines import engine_spec
from repro.guardrails.advice import AdviceBook
from repro.guardrails.manager import GuardrailManager
from repro.persist import checksum, restore_tuner, snapshot_tuner
from repro.resilience.faults import FaultInjector, FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.workload import build_catalog, multi_client_shifting_workload
from repro.workload.experiments import phase_distributions
from repro.workload.phases import noisy_workload
from repro.workload.querygen import PredicateSpec, QueryDistribution, QueryTemplate

from tests.decision_diff import Diff, close_diff

DATA_PATH = pathlib.Path(__file__).parent.parent / "data" / "close_identity.json"
SNAPSHOT_PATH = DATA_PATH.with_name("parent_snapshot.json")
BANDIT_SNAPSHOT_PATH = DATA_PATH.with_name("parent_bandit_snapshot.json")
ADVICE_SNAPSHOT_PATH = DATA_PATH.with_name("parent_advice_snapshot.json")
SEED = 0
CYCLES = 10
SNAPSHOT_ARRIVALS = 2000  # tests/obs/test_metrics_identity.py's run
RETIRED_CONFIG_KEYS = ("knapsack_warm_start",)
# Snapshot keys written since the recording (checked on their own).
ADDED_KEYS = ("queries_seen",)
RATIO_REL = 1e-9
HTAP_TABLES = ("lineitem_1", "lineitem_2", "orders_1", "orders_2")
ADVICE = """
pin lineitem_1.l_shipdate
pin customer_4.c_acctbal
ban lineitem_2.l_shipdate
prefer orders_3.o_orderdate 1.5
prefer lineitem_1.l_receiptdate 0.5
"""
# Pushed preferences naming a DBA-banned, a DBA-preferred and a fresh key.
ADVISORY = (
    (("lineitem_2", "l_shipdate"), 3.0),
    (("orders_3", "o_orderdate"), 2.0),
    (("orders_1", "o_orderdate"), 1.25),
)


def shifting_workload_base(catalog, seed=SEED):
    """The system benchmark's ``shift_cyclic`` base (``perf/workloads.py``)."""
    return multi_client_shifting_workload(
        phase_distributions(), catalog, 2, phase_length=100, transition=20, seed=seed
    )


def _shifting_base(catalog):
    return shifting_workload_base(catalog).queries


def _shift_events(catalog):
    base = _shifting_base(catalog)
    return itertools.chain.from_iterable(itertools.repeat(base, CYCLES))


def _htap_events(catalog):
    """Three queries, then the name of the table the next insert goes to."""
    base = _shifting_base(catalog)
    tables = itertools.cycle(HTAP_TABLES)
    for i, query in enumerate(itertools.chain(base, base, base, base)):
        yield query
        if i % 3 == 2:
            yield next(tables)


def _conjunctive_events(catalog):
    """Noise bursts over two-predicate templates, cycled to 440 closes."""

    def both(table, equality, ranged, weight):
        return QueryTemplate(
            predicates=(PredicateSpec(table, ranged), PredicateSpec(table, equality)),
            weight=weight,
        )

    def mix(name, i, third):
        return QueryDistribution(
            name,
            (
                both(f"lineitem_{i}", "l_shipmode", "l_shipdate", 3.5),
                both(f"orders_{i}", "o_orderpriority", "o_orderdate", 2.5),
                both(f"lineitem_{i}", "l_linenumber", third, 2.0),
            ),
        )

    base = noisy_workload(
        mix("conj_base", 1, "l_receiptdate"),
        mix("conj_noise", 2, "l_commitdate"),
        catalog,
        burst_length=40,
        noise_fraction=0.3,
        warmup=60,
        min_length=440,
        seed=SEED,
    ).queries
    return itertools.islice(itertools.cycle(base), 44 * CYCLES * 10)


def _run(engine, events, resilience=False, **kwargs):
    """Drive one engine; returns (epoch rows, repr of summed total cost).

    ``engine`` is a name (a tuner is built over a fresh catalog with
    ``kwargs``; default-constructed, as the benchmark's workloads build
    them) or a ready tuner.
    """
    source = build_catalog()  # bound queries replay across identical catalogs
    if isinstance(engine, str):
        tuner = engine_spec(engine).tuner(build_catalog(), **kwargs)
    else:
        tuner = engine
    rows = []
    total = 0.0
    for event in events(source):
        if isinstance(event, str):
            total += tuner.process_insert(event, count=50).total_cost
            continue
        outcome = tuner.process_query(event)
        total += outcome.total_cost
        reorg = outcome.reorganization
        if reorg is not None:
            rows.append(
                [
                    [ix.name for ix in reorg.materialize],
                    [ix.name for ix in reorg.drop],
                    [ix.name for ix in reorg.hot],
                    reorg.whatif_budget,
                    repr(reorg.improvement_ratio),
                ]
            )
            if resilience:
                rows[-1] += [
                    [ix.name for ix in reorg.build_failures],
                    [ix.name for ix in reorg.recovered_builds],
                    [ix.name for ix in reorg.abandoned_builds],
                ]
    return rows, repr(total)


def _faulty_colt():
    """COLT under build faults, its scheduler giving up after three attempts."""
    tuner = engine_spec("colt").tuner(build_catalog())
    tuner.scheduler = Scheduler(tuner.catalog, retry=RetryPolicy(max_attempts=3))
    FaultInjector(FaultPlan(build=FaultSpec(probability=0.6)), seed=SEED).attach(tuner)
    return tuner


def _constrained_bandit():
    """The bandit under DBA advice, guardrails and a pushed advisory."""
    tuner = engine_spec("bandit").tuner(
        build_catalog(), guardrails=GuardrailManager(), advice=AdviceBook.parse(ADVICE)
    )
    tuner.push_rulings(
        "advisory",
        [
            Ruling(tuner.catalog.index_for(table, column), "prefer", "advisory", weight)
            for (table, column), weight in ADVISORY
        ],
    )
    return tuner


def _snapshot_after(tuner, arrivals, snapshot):
    """``snapshot(tuner)`` after ``arrivals`` of the cycled base, through JSON once."""
    base = _shifting_base(build_catalog())
    for query in itertools.islice(itertools.cycle(base), arrivals):
        tuner.process_query(query)
    return json.loads(json.dumps(snapshot(tuner)))


def _identity_snapshot():
    """COLT's snapshot after the metrics-identity run, through JSON once."""
    return _snapshot_after(
        engine_spec("colt").tuner(build_catalog()), SNAPSHOT_ARRIVALS, snapshot_tuner
    )


SCENARIOS = {
    "colt_shift": lambda: _run("colt", _shift_events),
    "bandit_shift": lambda: _run("bandit", _shift_events),
    "colt_htap": lambda: _run("colt", _htap_events),
    "colt_constrained": lambda: _run(
        "colt",
        _shift_events,
        guardrails=GuardrailManager(),
        advice=AdviceBook.parse(ADVICE),
    ),
    "colt_faults": lambda: _run(_faulty_colt(), _shift_events, resilience=True),
    "colt_adaptive_composite": lambda: _run(
        "colt",
        _conjunctive_events,
        config=ColtConfig(adaptive_forecast_window=True, composite_candidates=True),
    ),
    "colt_restored": lambda: _run(
        restore_tuner(build_catalog(), json.loads(SNAPSHOT_PATH.read_text())),
        _shift_events,
    ),
    "bandit_constrained": lambda: _run(_constrained_bandit(), _shift_events),
    "bandit_restored": lambda: _run(
        restore_bandit_tuner(
            build_catalog(), json.loads(BANDIT_SNAPSHOT_PATH.read_text())
        ),
        _shift_events,
    ),
    "colt_advice_restored": lambda: _run(
        restore_tuner(build_catalog(), json.loads(ADVICE_SNAPSHOT_PATH.read_text())),
        _shift_events,
    ),
}


def dump(recorded) -> str:
    """One epoch per line: a diff of the file names the diverging epoch."""
    parts = []
    for name, (rows, total) in recorded.items():
        epochs = ",\n".join(
            "   " + json.dumps(row, separators=(",", ":")) for row in rows
        )
        parts.append(
            f' "{name}": {{\n  "total_cost": {json.dumps(total)},\n'
            f'  "epochs": [\n{epochs}\n  ]\n }}'
        )
    return "{\n" + ",\n".join(parts) + "\n}\n"


def differences(scenario, run, recorded) -> Diff:
    """One scenario's run against its recording (see the module docstring)."""
    bit_exact = scenario.startswith("colt_") and sys.version_info < (3, 12)
    rows, total = run
    return close_diff(
        rows,
        total,
        recorded["epochs"],
        recorded["total_cost"],
        rel=None if bit_exact else RATIO_REL,
    )


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA_PATH.read_text())


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_close_matches_the_recorded_run(pinned, scenario):
    assert differences(scenario, SCENARIOS[scenario](), pinned[scenario]).lines == []


def _as_recorded(snapshot):
    config = {
        k: v for k, v in snapshot["config"].items() if k not in RETIRED_CONFIG_KEYS
    }
    kept = {k: v for k, v in snapshot.items() if k not in ADDED_KEYS}
    return dict(kept, config=config)


def test_snapshot_after_the_identity_run_is_the_recording_commits():
    """Same canonical JSON on both commits, bar the retired config keys
    and the keys added since, which hold what the run did."""
    snapshot = _identity_snapshot()
    assert snapshot["queries_seen"] == SNAPSHOT_ARRIVALS
    got = _as_recorded(snapshot)
    want = _as_recorded(json.loads(SNAPSHOT_PATH.read_text()))
    assert got == want
    assert checksum(got) == checksum(want)


def test_streams_are_long_and_exercise_the_close(pinned):
    """The pin is only worth its bytes if the closes it covers do work."""
    for scenario in set(pinned) - {"colt_htap"}:
        assert len(pinned[scenario]["epochs"]) == 44 * CYCLES
    assert len(pinned["colt_htap"]["epochs"]) == 44 * 4
    for scenario, run in pinned.items():
        changed = sum(1 for adds, drops, *_ in run["epochs"] if adds or drops)
        assert changed >= 10, scenario
    constrained = pinned["colt_constrained"]["epochs"]
    assert "ix_customer_4_c_acctbal" in constrained[0][0]
    assert not any(
        "ix_lineitem_2_l_shipdate" in adds for adds, *_ in constrained
    )
    # Failed, recovered and abandoned builds, and boundaries with a retry
    # still waiting (a failure not yet resolved either way).
    faults = pinned["colt_faults"]["epochs"]
    failed, recovered, abandoned = (
        sum(len(row[i]) for row in faults) for i in (5, 6, 7)
    )
    assert failed >= 20 and recovered >= 10 and abandoned >= 3
    waiting = 0
    open_retries = set()
    for row in faults:
        open_retries |= set(row[5])
        open_retries -= {*row[6], *row[7], *row[1]}
        waiting += bool(open_retries)
    assert waiting >= 40
    composite = pinned["colt_adaptive_composite"]["epochs"]
    built = {name for adds, *_ in composite for name in adds}
    assert "ix_lineitem_1_l_shipmode_l_shipdate" in built  # a two-column index
    bandit = json.loads(BANDIT_SNAPSHOT_PATH.read_text())["safety"]
    assert bandit["bans"] and bandit["watch"]
    advised = json.loads(ADVICE_SNAPSHOT_PATH.read_text())
    assert "advice" in advised["guardrails"] and "advice" not in advised


def test_the_bandit_close_rules_from_every_source():
    tuner = _constrained_bandit()
    sources = set()
    for query in _shift_events(build_catalog()):
        reorg = tuner.process_query(query).reorganization
        if reorg is not None:
            sources.update(r.source for r in reorg.rulings)
    assert sources == {"dba", "advisory", "safety"}
