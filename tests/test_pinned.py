"""The decision diff of ``tools/regen_pinned.py``, on synthetic recordings.

Each pinned test asserts that its comparison (``tests/pinned.py``)
returns no difference, so these cases hold what that comparison reports:
an equal re-recording reads ``identical``, a flipped decision names its
first divergent epoch with the cost and what-if deltas, and a float
moved within the test's tolerance is counted, not reported.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

from repro.bench.tracing import EpochTrace, TunerTrace
from repro.core.config import ColtConfig

from tests.core import test_close_identity as closes
from tests.core.test_close_identity import RATIO_REL
from tests.decision_diff import GOLDEN_REL
from tests.obs.test_metrics_identity import differences as metric_differences
from tests.pinned import TABLE, Pinned

ROWS = {row.name: row for row in TABLE}
_spec = importlib.util.spec_from_file_location(
    "regen_pinned", pathlib.Path(__file__).resolve().parent.parent / "tools" / "regen_pinned.py"
)
regen_pinned = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen_pinned)


def _trace(ratio=0.5, flip_at=None) -> str:
    """Four epochs holding ``ix_a``; ``flip_at`` swaps it for ``ix_b`` there."""
    epochs = []
    for k in range(4):
        flipped = k == flip_at
        epochs.append(
            EpochTrace(
                epoch=k,
                execution_cost=100.0,
                total_cost=110.0 + (25.0 if flipped else 0.0),
                whatif_used=2 + flipped,
                budget_granted=3,
                improvement_ratio=ratio,
                materialized=["ix_b" if flipped else "ix_a"],
                added=["b"] if flipped else [],
                dropped=["a"] if flipped else [],
                hot=["ix_a", "ix_b"],
            )
        )
    return TunerTrace(epochs, ColtConfig()).to_json(indent=2)


def _closes(scenario="bandit_shift", ratio=0.5, flip_at=None) -> str:
    """One close-identity scenario of four rows; ``flip_at`` builds ``ix_b`` there."""
    rows = [
        [["ix_b"] if k == flip_at else [], [], ["ix_a"], 3, repr(ratio)] for k in range(4)
    ]
    total = 1000.0 + (40.0 if flip_at is not None else 0.0)
    return json.dumps({scenario: {"total_cost": repr(total), "epochs": rows}})


class TestGoldenTraceDiff:
    def test_equal_traces_are_identical(self):
        diff = ROWS["golden_trace"].compare(_trace(), _trace())
        assert diff.lines == [] and diff.tolerated == 0
        assert diff.report() == "identical"

    def test_a_flipped_m_names_its_epoch_and_the_deltas(self):
        diff = ROWS["golden_trace"].compare(_trace(flip_at=2), _trace())
        assert diff.lines == [
            "first divergent epoch 2 (1 of 4 epochs differ)",
            "epoch 2: M +ix_b -ix_a; added +b; dropped +a; what-if used 2 -> 3; "
            "total cost 110.0 -> 135.0",
            "total cost 440.0 -> 465.0 (+25, +5.6818%)",
            "what-if calls 8 -> 9 (+1)",
        ]
        assert diff.report().startswith("differs\n  first divergent epoch 2")

    def test_a_ratio_within_tolerance_is_counted(self):
        moved = 0.5 * (1 + GOLDEN_REL / 2)
        diff = ROWS["golden_bandit_trace"].compare(_trace(ratio=moved), _trace())
        assert diff.lines == [] and diff.tolerated == 4
        assert diff.report() == "identical (4 floats moved within the test's tolerance)"

    def test_a_ratio_beyond_tolerance_is_reported(self):
        moved = 0.5 * (1 + 4 * GOLDEN_REL)
        diff = ROWS["golden_trace"].compare(_trace(ratio=moved), _trace())
        assert diff.lines[0] == "first divergent epoch 0 (4 of 4 epochs differ)"
        assert diff.lines[1] == f"epoch 0: r 0.5 -> {moved!r}"


class TestCloseRowsDiff:
    def test_equal_rows_are_identical(self):
        diff = ROWS["close_identity"].compare(_closes(), _closes())
        assert diff.report() == "identical"

    def test_a_flipped_build_names_its_epoch_and_the_deltas(self):
        diff = ROWS["close_identity"].compare(_closes(flip_at=1), _closes())
        assert diff.lines == [
            "bandit_shift: first divergent epoch 1 (1 of 4 epochs differ)",
            "bandit_shift: epoch 1: added +ix_b",
            "bandit_shift: total cost 1000.0 -> 1040.0 (+40, +4.0000%)",
            "bandit_shift: what-if granted 12 -> 12 (+0)",
        ]

    def test_a_bandit_ratio_within_tolerance_is_counted(self):
        moved = 0.5 * (1 + RATIO_REL / 2)
        diff = ROWS["close_identity"].compare(_closes(ratio=moved), _closes())
        assert diff.lines == [] and diff.tolerated == 4

    def test_a_bandit_ratio_beyond_tolerance_is_reported(self):
        moved = 0.5 * (1 + 4 * RATIO_REL)
        diff = ROWS["close_identity"].compare(_closes(ratio=moved), _closes())
        assert diff.lines[0] == "bandit_shift: first divergent epoch 0 (4 of 4 epochs differ)"
        assert diff.lines[1] == f"bandit_shift: epoch 0: r 0.5 -> {moved!r}"
        assert len(diff.lines) == 7  # where, the four epochs, the two totals

    def test_a_colt_ratio_is_bit_exact_below_3_12(self):
        moved = 0.5 * (1 + RATIO_REL / 2)
        diff = ROWS["close_identity"].compare(
            _closes("colt_shift", ratio=moved), _closes("colt_shift")
        )
        assert bool(diff.lines) == (sys.version_info < (3, 12))


def test_a_deleted_metric_family_reads_as_gone():
    families = [{"name": n, "type": "counter", "samples": []} for n in ("a", "b", "c")]
    diff = metric_differences([families[0], families[2]], families)
    assert diff.lines == ["families gone: b", "the other 2 families as recorded"]


def test_every_pinned_file_exists_and_none_is_a_restore_fixture():
    """The restore fixtures are copies made on older commits: never re-recorded."""
    assert [row.path.name for row in TABLE if row.path.name.startswith("parent_")] == []
    assert all(row.path.exists() for row in TABLE)


def test_only_a_scenario_re_records_it_and_keeps_the_others(monkeypatch):
    def run(name):
        return lambda: ([[[name], [], [], 1, "0.5"]], "2.0")

    monkeypatch.setattr(closes, "SCENARIOS", {"x": run("old"), "y": run("old")})
    current = ROWS["close_identity"].record("", ())
    monkeypatch.setattr(closes, "SCENARIOS", {"x": run("new"), "y": run("new")})
    recorded = json.loads(ROWS["close_identity"].record(current, ("y",)))
    assert recorded["x"]["epochs"][0][0] == ["old"]
    assert recorded["y"]["epochs"][0][0] == ["new"]


class TestTool:
    def test_only_picks_files_and_close_scenarios(self):
        assert regen_pinned.selection(["colt_faults", "drift"]) == [
            (ROWS["close_identity"], ("colt_faults",)),
            (ROWS["drift"], ()),
        ]
        assert regen_pinned.selection(["close_identity", "colt_faults"]) == [
            (ROWS["close_identity"], ())
        ]

    def test_an_unknown_name_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            regen_pinned.main(["--only", "nosuch"])
        assert exc.value.code == 2
        assert "unknown name(s) ['nosuch']" in capsys.readouterr().err

    @pytest.fixture
    def fake(self, tmp_path, monkeypatch):
        """A one-row table over a temporary trace whose re-recording flips epoch 2."""
        path = tmp_path / "trace.json"
        path.write_text(_trace())
        row = Pinned(
            "fake", path, lambda current, parts: _trace(flip_at=2), ROWS["golden_trace"].compare
        )
        monkeypatch.setattr(regen_pinned, "TABLE", (row,))
        return path

    def test_a_difference_exits_1_and_writes_nothing(self, fake, capsys):
        assert regen_pinned.main([]) == 1
        assert "fake: differs\n  first divergent epoch 2" in capsys.readouterr().out
        assert fake.read_text() == _trace()

    def test_write_rewrites_the_file(self, fake, capsys):
        if sys.version_info >= (3, 12):
            with pytest.raises(SystemExit):
                regen_pinned.main(["--write"])
            return
        assert regen_pinned.main(["--write"]) == 0
        assert fake.read_text() == _trace(flip_at=2)
