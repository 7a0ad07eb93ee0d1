"""End-to-end guardrails on a live tuner: quarantine, advice, persistence.

These tests run the adversarial ``facts`` scenario from
``repro.workload.adversarial``: catalog statistics over-promise the
skewed column, so an unguarded COLT materializes and keeps
``ix_facts_f_skew`` while guardrails must catch the regression.
"""

import pytest

from repro.core.colt import ColtTuner
from repro.core.config import ColtConfig
from repro.guardrails import (
    AdviceBook,
    ExecutionObserver,
    GuardrailManager,
    Verdict,
)
from repro.guardrails.quarantine import COOLDOWN_EPOCHS
from repro.guardrails.verify import QUARANTINE_RATIO
from repro.persist import restore_tuner, snapshot_tuner
from repro.workload import build_adversarial_store, misleading_workload

QUERIES = 240
# Arrivals after which the skew index has served one close of its
# quarantine (admitted at the close after arrival 120).
MID_COOLDOWN = 140
SKEW_NAME = "ix_facts_f_skew"
HONEST_NAME = "ix_facts_f_grp"


def _run(advice=None, queries=QUERIES, guardrails=True):
    store = build_adversarial_store()
    catalog = store.catalog
    manager = (
        GuardrailManager(observer=ExecutionObserver(store))
        if guardrails
        else None
    )
    tuner = ColtTuner(
        catalog,
        ColtConfig(epoch_length=20, storage_budget_pages=200.0),
        store=store,
        guardrails=manager,
        advice=advice,
    )
    workload = misleading_workload(catalog, length=queries, seed=1)
    outcomes = tuner.run(workload.queries)
    return store, tuner, manager, outcomes


def _skew_index(catalog):
    return catalog.index_for("facts", "f_skew")


def _entry(manager, index):
    (entry,) = [e for e in manager.quarantine.entries if e.index == index]
    return entry


def test_overpromised_index_is_quarantined_within_window():
    store, tuner, manager, outcomes = _run()
    skew = _skew_index(store.catalog)

    assert skew in manager.quarantine
    assert SKEW_NAME not in {ix.name for ix in tuner.materialized_set}
    # The quarantine decision surfaced on an epoch reorganization.
    quarantined = [
        ix.name
        for o in outcomes
        if o.reorganization is not None
        for ix in o.reorganization.quarantined
    ]
    assert SKEW_NAME in quarantined
    # ...and it happened within one verification window of materialization:
    # the verifier needed `VERIFY_WINDOW` samples, budgeted per epoch.
    entry = _entry(manager, skew)
    assert entry.ratio is not None and entry.ratio < QUARANTINE_RATIO


def test_unguarded_tuner_keeps_the_bad_index():
    _, tuner, _, _ = _run(guardrails=False)
    assert SKEW_NAME in {ix.name for ix in tuner.materialized_set}


def test_honest_index_verifies_clean():
    store, tuner, manager, _ = _run()
    honest = store.catalog.index_for("facts", "f_grp")
    assert HONEST_NAME in {ix.name for ix in tuner.materialized_set}
    assert honest not in manager.quarantine
    assert manager.verdict_for(honest) is not Verdict.REGRESSED


def test_pinned_index_survives_regression():
    advice = AdviceBook.parse("pin facts.f_skew")
    store, tuner, manager, _ = _run(advice=advice)
    skew = _skew_index(store.catalog)

    # The DBA pinned it: REGRESSED verdicts are recorded but the index
    # is never quarantined and never leaves M.
    assert SKEW_NAME in {ix.name for ix in tuner.materialized_set}
    assert skew not in manager.quarantine
    rows = {row["index"]: row for row in manager.audit(tuner.materialized_set)}
    assert rows["facts.f_skew"]["pinned"]


def test_banned_index_never_materializes():
    advice = AdviceBook.parse("ban facts.f_skew")
    _, tuner, _, outcomes = _run(advice=advice)
    ever_materialized = {
        ix.name
        for o in outcomes
        if o.reorganization is not None
        for ix in o.reorganization.materialize
    }
    assert SKEW_NAME not in ever_materialized
    assert SKEW_NAME not in {ix.name for ix in tuner.materialized_set}


def test_verification_overhead_is_accounted():
    _, _, _, outcomes = _run()
    calls = sum(o.verify_calls for o in outcomes)
    overhead = sum(o.verify_overhead for o in outcomes)
    assert calls > 0
    assert overhead > 0.0  # execution observer charges shadow runs


def test_snapshot_round_trip_preserves_guardrail_state():
    advice = AdviceBook.parse("prefer facts.f_grp 1.5")
    store, tuner, manager, _ = _run(advice=advice, queries=MID_COOLDOWN)
    skew = _skew_index(store.catalog)
    original = _entry(manager, skew)
    assert original.state == "quarantined"
    assert 1 < original.cooldown_left < COOLDOWN_EPOCHS  # mid-cooldown

    snapshot = snapshot_tuner(tuner)
    assert "guardrails" in snapshot

    def restore():
        fresh_store = build_adversarial_store()
        return restore_tuner(
            fresh_store.catalog,
            snapshot,
            store=fresh_store,
            observer=ExecutionObserver(fresh_store),
        )

    restored = restore()
    restored_manager = restored.guardrails
    assert restored_manager is not None

    # Quarantine state (entry, strikes, clocks) survived the restart.
    entry = _entry(restored_manager, skew)
    assert entry.state == original.state
    assert entry.strikes == original.strikes
    assert entry.cooldown_left == original.cooldown_left
    assert entry.ratio == pytest.approx(original.ratio)
    # Advice survived too.
    assert restored.advice.to_snapshot() == advice.to_snapshot()

    # A restart must not amnesty the bad index: through the closes left
    # in its cooldown (the last one paroles it) it stays out of M.
    stream = misleading_workload(restored.catalog, length=QUERIES, seed=1).queries
    rest = stream[MID_COOLDOWN:][: (entry.cooldown_left - 1) * tuner.config.epoch_length]
    for query in rest:
        restored.process_query(query)
        assert _entry(restored_manager, skew).state == "quarantined"
        assert SKEW_NAME not in {ix.name for ix in restored.materialized_set}
    # ...which is the ban's doing: released, the same stream builds it.
    amnestied = restore()
    amnestied.guardrails.quarantine.clear(skew)
    amnestied.run(rest)
    assert SKEW_NAME in {ix.name for ix in amnestied.materialized_set}


def test_snapshot_without_guardrails_restores_none():
    store, tuner, _, _ = _run(guardrails=False)
    snapshot = snapshot_tuner(tuner)
    assert "guardrails" not in snapshot
    fresh = build_adversarial_store()
    restored = restore_tuner(fresh.catalog, snapshot, store=fresh)
    assert restored.guardrails is None
