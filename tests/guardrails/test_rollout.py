"""Staged rollout: canary promotion, rollback, reassignment, persistence."""

import pytest

from repro.fleet.replica import ReplicaHealth
from repro.guardrails.manager import GuardrailManager
from repro.guardrails.rollout import RolloutController, RolloutStage
from repro.guardrails.verify import Observation
from tests.fleet.workloads import build_small_catalog


class _FakeTuner:
    def __init__(self, materialized, guardrails):
        self.materialized_set = set(materialized)
        self.guardrails = guardrails
        self.pushed = {}

    def push_rulings(self, source, rulings):
        self.pushed[source] = list(rulings)

    @property
    def rollout_bans(self):
        assert all(r.kind == "ban" for r in self.pushed["rollout"])
        return [r.index for r in self.pushed["rollout"]]


class _FakeReplica:
    """Just the surface reconcile() touches on a TunerReplica."""

    def __init__(self, replica_id, materialized=(), manager=None):
        self.replica_id = replica_id
        self.tuner = _FakeTuner(materialized, manager)
        self.health = ReplicaHealth.HEALTHY


def _index():
    return build_small_catalog().index_for("events", "user_id")


def _obs(p_with, p_without, o_with, o_without):
    return Observation(
        predicted_with=p_with,
        predicted_without=p_without,
        observed_with=o_with,
        observed_without=o_without,
    )


def _verify(manager, index, good=True, samples=8):
    observed_with = 10.0 if good else 90.0
    for _ in range(samples):
        manager.verifier.record(
            index, _obs(10.0, 100.0, observed_with, 100.0)
        )


def test_new_index_starts_canary_and_bans_other_replicas():
    index = _index()
    managers = [GuardrailManager(), GuardrailManager()]
    replicas = [
        _FakeReplica(0, [index], managers[0]),
        _FakeReplica(1, [], managers[1]),
    ]
    controller = RolloutController()
    summary = controller.reconcile(replicas)

    assert [ix.name for ix in summary.started] == [index.name]
    assert summary.active_canaries == 1
    record = controller.record_for(index)
    assert record.stage is RolloutStage.CANARY
    assert record.canary_id == 0
    # Only the non-canary replica is banned from materializing it.
    assert replicas[0].tuner.rollout_bans == []
    assert [ix.name for ix in replicas[1].tuner.rollout_bans] == [index.name]


def test_verified_canary_promotes_fleet_wide():
    index = _index()
    managers = [GuardrailManager(), GuardrailManager()]
    replicas = [
        _FakeReplica(0, [index], managers[0]),
        _FakeReplica(1, [], managers[1]),
    ]
    controller = RolloutController()
    controller.reconcile(replicas)
    _verify(managers[0], index, good=True)

    summary = controller.reconcile(replicas)
    assert [ix.name for ix in summary.promoted] == [index.name]
    assert controller.stage_for(index) is RolloutStage.PROMOTED
    assert replicas[1].tuner.rollout_bans == []  # ban lifted
    # Promoted indexes join the baseline: no fresh canary on re-discovery.
    replicas[1].tuner.materialized_set.add(index)
    assert controller.reconcile(replicas).started == []


def test_regressed_canary_rolls_back_and_cooldown_expires():
    index = _index()
    managers = [GuardrailManager(), GuardrailManager()]
    replicas = [
        _FakeReplica(0, [index], managers[0]),
        _FakeReplica(1, [], managers[1]),
    ]
    controller = RolloutController(rollback_cooldown=2)
    controller.reconcile(replicas)
    _verify(managers[0], index, good=False)

    summary = controller.reconcile(replicas)
    assert [ix.name for ix in summary.rolled_back] == [index.name]
    assert controller.stage_for(index) is RolloutStage.ROLLED_BACK
    # Fleet-wide ban while the cooldown runs -- canary included.
    assert [ix.name for ix in replicas[0].tuner.rollout_bans] == [index.name]
    assert [ix.name for ix in replicas[1].tuner.rollout_bans] == [index.name]

    # The canary's own reorganization dropped it meanwhile.
    replicas[0].tuner.materialized_set.discard(index)
    controller.reconcile(replicas)  # cooldown 2 -> 1, still banned
    assert controller.stage_for(index) is RolloutStage.ROLLED_BACK
    summary = controller.reconcile(replicas)  # cooldown exhausted
    assert controller.record_for(index) is None
    assert replicas[1].tuner.rollout_bans == []
    # A later materialization starts a *fresh* rollout.
    replicas[1].tuner.materialized_set.add(index)
    summary = controller.reconcile(replicas)
    assert [ix.name for ix in summary.started] == [index.name]
    assert controller.record_for(index).canary_id == 1


def test_quarantined_canary_counts_as_regressed():
    index = _index()
    manager = GuardrailManager()
    replicas = [_FakeReplica(0, [index], manager)]
    controller = RolloutController()
    controller.reconcile(replicas)
    manager.quarantine.admit(index, ratio=0.1)

    summary = controller.reconcile(replicas)
    assert [ix.name for ix in summary.rolled_back] == [index.name]


def test_dead_canary_reassigns_to_lowest_healthy_holder():
    index = _index()
    managers = [GuardrailManager() for _ in range(3)]
    replicas = [
        _FakeReplica(0, [index], managers[0]),
        _FakeReplica(1, [index], managers[1]),
        _FakeReplica(2, [index], managers[2]),
    ]
    controller = RolloutController()
    controller.reconcile(replicas)
    assert controller.record_for(index).canary_id == 0

    replicas[0].health = ReplicaHealth.DRAINED
    summary = controller.reconcile(replicas)
    assert summary.reassigned == 1
    record = controller.record_for(index)
    assert record.canary_id == 1
    assert record.reassignments == 1
    assert record.stage is RolloutStage.CANARY
    # The drained ex-canary is now "other": it picks up the ban too.
    assert [ix.name for ix in replicas[0].tuner.rollout_bans] == [index.name]


def test_canary_dies_with_no_successor_cancels():
    index = _index()
    replicas = [
        _FakeReplica(0, [index], GuardrailManager()),
        _FakeReplica(1, [], GuardrailManager()),
    ]
    controller = RolloutController()
    controller.reconcile(replicas)

    replicas[0].health = ReplicaHealth.DRAINED
    summary = controller.reconcile(replicas)
    assert [ix.name for ix in summary.cancelled] == [index.name]
    assert controller.record_for(index) is None


def test_guardrail_free_canary_promotes_immediately():
    index = _index()
    replicas = [_FakeReplica(0, [index], manager=None)]
    controller = RolloutController()
    controller.reconcile(replicas)
    summary = controller.reconcile(replicas)
    assert [ix.name for ix in summary.promoted] == [index.name]


def test_baseline_indexes_never_canary():
    index = _index()
    controller = RolloutController(baseline=[index])
    replicas = [_FakeReplica(0, [index], GuardrailManager())]
    summary = controller.reconcile(replicas)
    assert summary.started == []
    assert controller.record_for(index) is None


def test_snapshot_round_trip_resumes_cooldown():
    catalog = build_small_catalog()
    index = catalog.index_for("events", "user_id")
    other = catalog.index_for("events", "day")
    manager = GuardrailManager()
    replicas = [_FakeReplica(0, [index, other], manager)]
    controller = RolloutController(baseline=[other], rollback_cooldown=3)
    controller.reconcile(replicas)
    _verify(manager, index, good=False)
    controller.reconcile(replicas)  # rolled back, cooldown 3

    restored = RolloutController.from_snapshot(
        controller.to_snapshot(), build_small_catalog()
    )
    record = restored.record_for(index)
    assert record.stage is RolloutStage.ROLLED_BACK
    assert record.cooldown_remaining == 3
    assert restored.stage_for(other) is None  # baseline survived
    replicas[0].tuner.materialized_set.discard(index)
    for _ in range(3):
        restored.reconcile(replicas)
    assert restored.record_for(index) is None


def test_rejects_bad_cooldown():
    with pytest.raises(ValueError):
        RolloutController(rollback_cooldown=0)
