"""Guardrail blocks written when the guardrails had settings still restore.

A guardrail snapshot once carried a ``"config"`` block (the manager's
six settings) and the quarantine's ``"cooldown_epochs"``; each setting is
a module constant now.  A stored block restores when every value equals
its constant and is refused, naming the field, when one differs.  The
expected rows below were read from the commit that still had the
settings, restoring ``tests/data/parent_advice_snapshot.json``.
"""

import copy
import json
import pathlib

import pytest

from repro.cli import EXIT_SNAPSHOT, main
from repro.core.knapsack import Ruling
from repro.persist import SnapshotError, checksum, restore_tuner, snapshot_tuner
from repro.workload import build_catalog

SNAPSHOT_PATH = pathlib.Path(__file__).parent.parent / "data" / "parent_advice_snapshot.json"

#: ``checksum(audit rows)`` of the restored snapshot on the recording commit.
PARENT_AUDIT_CHECKSUM = "7f8b68141f7075fe3e69d19126991835960f7d9f79de1105d5cbd808f42c7637"

#: The same rows, in part: index, materialized, pinned, banned, preferred
#: weight, samples, verdict.
PARENT_AUDIT = [
    ("customer_4.c_acctbal", True, True, False, None, 0, "pending"),
    ("lineitem_1.l_receiptdate", False, False, False, 0.5, 0, "pending"),
    ("lineitem_1.l_shipdate", True, True, False, None, 8, "verified"),
    ("lineitem_2.l_receiptdate", True, False, False, None, 8, "verified"),
    ("lineitem_2.l_shipdate", False, False, True, None, 0, "pending"),
    ("lineitem_3.l_shipdate", True, False, False, None, 8, "verified"),
    ("orders_1.o_orderdate", True, False, False, None, 8, "verified"),
    ("orders_2.o_orderdate", True, False, False, None, 8, "verified"),
    ("orders_3.o_orderdate", False, False, False, 1.5, 0, "pending"),
    ("partsupp_1.ps_supplycost", True, False, False, None, 8, "verified"),
]

#: One entry part way through its cooldown and one on parole, as the
#: breaker-based quarantine wrote them.
STORED_ENTRIES = [
    {"table": "lineitem_2", "columns": ["l_shipdate"], "ratio": 0.25,
     "entered_epoch": 197, "strikes": 1, "state": "open",
     "cooldown_progress": 2, "parole_ticks": 0},
    {"table": "orders_3", "columns": ["o_orderdate"], "ratio": -0.5,
     "entered_epoch": 190, "strikes": 2, "state": "half_open",
     "cooldown_progress": 6, "parole_ticks": 3},
]


def _stored():
    return json.loads(SNAPSHOT_PATH.read_text())


def _audit(tuner):
    return tuner.guardrails.audit(tuner.materialized_set)


def test_the_recorded_block_restores_to_the_recorded_audit():
    snapshot = _stored()
    assert "config" in snapshot["guardrails"]
    assert "cooldown_epochs" in snapshot["guardrails"]["quarantine"]
    rows = _audit(restore_tuner(build_catalog(), snapshot))
    assert [
        (r["index"], r["materialized"], r["pinned"], r["banned"],
         r["preferred_weight"], r["samples"], r["verdict"])
        for r in rows
    ] == PARENT_AUDIT
    assert checksum(rows) == PARENT_AUDIT_CHECKSUM


def test_a_restored_block_is_written_without_the_settings():
    written = snapshot_tuner(restore_tuner(build_catalog(), _stored()))["guardrails"]
    assert "config" not in written
    assert "cooldown_epochs" not in written["quarantine"]
    stored = _stored()["guardrails"]
    assert written["verifier"] == stored["verifier"]
    assert written["quarantine"]["entries"] == stored["quarantine"]["entries"]


def _with_setting(field, value):
    snapshot = _stored()
    if field == "cooldown_epochs":
        snapshot["guardrails"]["quarantine"][field] = value
    else:
        snapshot["guardrails"]["config"][field] = value
    return snapshot


DIFFERING = [
    ("verify_window", 4),
    ("quarantine_ratio", 0.25),
    ("quarantine_epochs", 3),
    ("verify_budget_per_epoch", 8),
    ("min_predicted_fraction", 0.05),
    ("shadow_cost_factor", 0.5),
    ("cooldown_epochs", 3),
    ("no_such_setting", 1),
]


@pytest.mark.parametrize("field, value", DIFFERING)
def test_a_setting_off_its_constant_is_refused(field, value):
    with pytest.raises(SnapshotError, match=field):
        restore_tuner(build_catalog(), _with_setting(field, value))


@pytest.mark.parametrize("field, value", [DIFFERING[0], DIFFERING[6]])
def test_check_snapshot_exits_with_the_snapshot_code(field, value, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(_with_setting(field, value)))
    assert main(["check-snapshot", str(path)]) == EXIT_SNAPSHOT
    err = capsys.readouterr().err
    assert err.startswith("snapshot error:") and field in err


def test_quarantine_clocks_round_trip():
    snapshot = _stored()
    snapshot["guardrails"]["quarantine"]["entries"] = copy.deepcopy(STORED_ENTRIES)
    tuner = restore_tuner(build_catalog(), snapshot)
    quarantined = {r["index"]: r["quarantine"] for r in _audit(tuner) if r["quarantine"]}
    assert quarantined == {
        "lineitem_2.l_shipdate": {"state": "quarantined", "ratio": 0.25, "strikes": 1,
                                  "cooldown_remaining": 4, "parole_ticks": 0},
        "orders_3.o_orderdate": {"state": "parole", "ratio": -0.5, "strikes": 2,
                                 "cooldown_remaining": 0, "parole_ticks": 3},
    }
    written = snapshot_tuner(tuner)["guardrails"]["quarantine"]["entries"]
    assert written == STORED_ENTRIES
    again = restore_tuner(build_catalog(), snapshot_tuner(tuner))
    assert _audit(again) == _audit(tuner)

    # One boundary later the recording commit ruled the same ban.
    rulings, admitted, released = tuner.guardrails.end_epoch(tuner.materialized_set, 10)
    skew = tuner.catalog.composite_index_for("lineitem_2", ["l_shipdate"])
    assert rulings == (
        Ruling(skew, "ban", "quarantine",
               reason="observed/predicted 0.25, strike 1", until=13),
    )
    assert admitted == [] and released == []
