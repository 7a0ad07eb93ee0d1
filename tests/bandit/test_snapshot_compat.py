"""Stored bandit config blocks against the bandit's constants.

The bandit reads the shared :class:`~repro.core.config.ColtConfig`; its
own knobs (exploration, ridge prior, forgetting, observation budget,
safety rail, arm pool) are the constants of :mod:`repro.bandit.tuner`.
Snapshots and traces written while those knobs were settable carry them
in their ``config`` block: such a block loads while each knob holds its
constant's value, and is refused, by the knob's name, otherwise.
"""

import copy
import dataclasses
import json
import random

import pytest

from repro.bandit.persist import restore_bandit_tuner, snapshot_bandit_tuner
from repro.bandit.tuner import STORED_CONSTANTS, BanditTuner
from repro.bench.tracing import TunerTrace
from repro.cli import EXIT_SNAPSHOT, main
from repro.core.config import ColtConfig
from repro.persist import SnapshotError, restore_any, save_json
from repro.workload import build_catalog

from tests.bench.test_golden_trace import GOLDEN_BANDIT_PATH, traced_run
from tests.core.test_close_identity import BANDIT_SNAPSHOT_PATH
from tests.fleet.workloads import build_small_catalog, eq_query


def _parent_snapshot():
    return json.loads(BANDIT_SNAPSHOT_PATH.read_text())


def _off_constant(value):
    """A value of the same type as ``value`` that is not ``value``."""
    return value * 2 if isinstance(value, int) else value + 0.25


class TestParentSnapshot:
    """The snapshot written while the knobs were settable (19-key block)."""

    def test_block_holds_every_knob_at_its_constant(self):
        config = _parent_snapshot()["config"]
        assert len(config) == 19
        assert {name: config[name] for name in STORED_CONSTANTS} == STORED_CONSTANTS

    def test_restores_the_state_the_parent_restored(self):
        # Values recorded by restoring this file before the knobs became
        # constants.
        snapshot = _parent_snapshot()
        tuner = restore_bandit_tuner(build_catalog(), snapshot)
        assert tuner.config == ColtConfig()
        model = tuner.model
        assert (model.dim, model.updates) == (10, 1176)
        assert (model.lambda_reg, model.forgetting) == (1.0, 0.9)
        assert model.v == snapshot["model"]["v"]
        assert model.b == snapshot["model"]["b"]
        x = [1.0] * model.dim
        assert model.mean(x) == pytest.approx(414.3006329400132, rel=1e-9)
        assert model.width(x) == pytest.approx(2.3807325362763265, rel=1e-9)
        assert {ix.name: left for ix, left in tuner.safety.bans.items()} == {
            "ix_orders_3_o_orderdate": 6,
            "ix_partsupp_3_ps_supplycost": 6,
        }
        added, baseline = tuner.safety.watch
        assert [ix.name for ix in added] == [
            "ix_lineitem_3_l_commitdate",
            "ix_orders_1_o_orderdate",
        ]
        assert baseline == 17138.76587569825
        assert (tuner.epochs_closed, tuner.queries_seen, tuner.dashboard.epochs) == (
            245,
            0,
            0,
        )
        assert tuner._prev_solution_value == 202550.73029127723  # noqa: SLF001


def test_golden_trace_config_is_the_traced_run_config():
    golden = TunerTrace.from_json(GOLDEN_BANDIT_PATH.read_text())
    assert len(json.loads(GOLDEN_BANDIT_PATH.read_text())["config"]) == 19
    assert golden.config == traced_run("bandit").config


@pytest.mark.parametrize("name", sorted(STORED_CONSTANTS))
class TestKnobOffItsConstant:
    def test_snapshot_refused_by_name(self, name):
        snapshot = _parent_snapshot()
        snapshot["config"][name] = _off_constant(STORED_CONSTANTS[name])
        for restore in (restore_bandit_tuner, restore_any):
            with pytest.raises(SnapshotError, match=name):
                restore(build_catalog(), snapshot)

    def test_trace_refused_by_name(self, name):
        payload = json.loads(GOLDEN_BANDIT_PATH.read_text())
        payload["config"][name] = _off_constant(STORED_CONSTANTS[name])
        with pytest.raises(ValueError, match=name) as refused:
            TunerTrace.from_json(payload)
        assert not isinstance(refused.value, SnapshotError)

    def test_check_snapshot_exits_with_the_snapshot_code(self, name, tmp_path, capsys):
        snapshot = _parent_snapshot()
        snapshot["config"][name] = _off_constant(STORED_CONSTANTS[name])
        path = tmp_path / "bandit.json"
        save_json(path, snapshot)
        assert main(["check-snapshot", str(path)]) == EXIT_SNAPSHOT
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err


def test_unknown_key_is_still_refused():
    snapshot = _parent_snapshot()
    snapshot["config"]["exploration_bonus"] = 1.0
    with pytest.raises(SnapshotError, match="exploration_bonus"):
        restore_bandit_tuner(build_catalog(), snapshot)
    payload = json.loads(GOLDEN_BANDIT_PATH.read_text())
    payload["config"]["exploration_bonus"] = 1.0
    with pytest.raises(ValueError, match="exploration_bonus"):
        TunerTrace.from_json(payload)


def test_new_snapshot_round_trips():
    tuner = BanditTuner(
        build_small_catalog(), ColtConfig(epoch_length=5, storage_budget_pages=5000.0)
    )
    rng = random.Random(0)
    for _ in range(40):
        tuner.process_query(eq_query(rng.randint(1, 10_000)))
    snapshot = json.loads(json.dumps(snapshot_bandit_tuner(tuner)))
    assert snapshot["config"] == dataclasses.asdict(tuner.config)
    restored = restore_bandit_tuner(build_small_catalog(), copy.deepcopy(snapshot))
    assert restored.config == tuner.config
    assert json.loads(json.dumps(snapshot_bandit_tuner(restored))) == snapshot
