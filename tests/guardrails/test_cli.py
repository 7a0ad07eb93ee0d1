"""CLI surface for the guardrail subsystem: audit.

The two ``audit --compare`` runs (``AUDIT_RUNS``) are held to the
documents recorded in ``tests/data/audit_identity.json``, compared
exactly: observed cost, verification overhead, final design, quarantine
and every audit row of both arms.  The file is re-recorded from the same
two runs by the one tool for every decision-pinned file:

    PYTHONPATH=src python tools/regen_pinned.py --only audit_identity
"""

import json
import pathlib

import pytest

from repro.cli import EXIT_ERROR, build_parser, main

from tests.decision_diff import json_diff

AUDIT_PATH = pathlib.Path(__file__).parent.parent / "data" / "audit_identity.json"
AUDIT_IDENTITY = json.loads(AUDIT_PATH.read_text())

#: The pinned ``audit --compare`` runs: argv, and the advice file's text.
AUDIT_RUNS = {
    "clean_advice": (
        ["audit", "--scenario", "clean", "--queries", "160", "--compare"],
        "pin facts.f_id\nban facts.f_skew\n",
    ),
    "misleading": (["audit", "--queries", "240", "--seed", "1", "--compare"], None),
}


def run_audit(name, directory):
    """Run one of ``AUDIT_RUNS`` in ``directory``: its exit code and JSON document."""
    argv, advice = AUDIT_RUNS[name]
    if advice is not None:
        (directory / "advice.txt").write_text(advice)
        argv = argv + ["--advice", str(directory / "advice.txt")]
    target = directory / f"{name}.json"
    code = main(argv + ["--json", str(target)])
    return code, json.loads(target.read_text()) if code == 0 else None


class TestAuditParsing:
    def test_defaults(self):
        args = build_parser().parse_args(["audit"])
        assert args.scenario == "misleading"
        assert args.guardrails == "on"
        assert not args.compare
        assert args.json_out is None

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit", "--scenario", "sunny"])


class TestAuditCommand:
    FAST = ["audit", "--queries", "160", "--seed", "1"]

    def test_audit_reports_quarantine(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "facts.f_skew" in out
        # The over-promised index is in quarantine (its verdict column
        # may already read "pending" again: dropping it reset evidence).
        assert "quarantined (cooldown" in out

    def test_audit_clean_scenario_no_false_positives(self, capsys):
        assert main(["audit", "--scenario", "clean", "--queries", "160"]) == 0
        out = capsys.readouterr().out
        assert "regressed" not in out
        assert "quarantined (cooldown" not in out

    def test_audit_compare_wins_and_writes_json(self, capsys, tmp_path):
        code, document = run_audit("misleading", tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "regret saved" in out
        assert json_diff(document, AUDIT_IDENTITY["misleading"]).lines == []

    def test_audit_respects_advice_file(self, capsys, tmp_path):
        advice = tmp_path / "advice.txt"
        advice.write_text("ban facts.f_skew\n")
        assert main(self.FAST + ["--advice", str(advice)]) == 0
        out = capsys.readouterr().out
        assert "ban" in out

    def test_audit_rejects_bad_advice_file(self, capsys, tmp_path):
        advice = tmp_path / "advice.txt"
        advice.write_text("pin facts.f_skew\nban facts.f_skew\n")
        assert main(self.FAST + ["--advice", str(advice)]) == EXIT_ERROR

    @pytest.mark.parametrize("text", [None, "pin nosuchtable.col\n"])
    def test_advice_is_read_with_guardrails_off(self, capsys, tmp_path, text):
        advice = tmp_path / "advice.txt"  # missing when text is None
        if text is not None:
            advice.write_text(text)
        argv = self.FAST + ["--guardrails", "off", "--advice", str(advice)]
        assert main(argv) == EXIT_ERROR

    def test_compare_gives_the_advice_to_both_arms(self, capsys, tmp_path):
        code, document = run_audit("clean_advice", tmp_path)
        assert code == 0
        assert json_diff(document, AUDIT_IDENTITY["clean_advice"]).lines == []

    def test_help_no_longer_ties_advice_to_guardrails(self, capsys):
        with pytest.raises(SystemExit):
            main(["audit", "--help"])
        assert "requires guardrails" not in " ".join(capsys.readouterr().out.split())

