"""Tests for the command-line interface."""

import json
import sys

import pytest

from repro.cli import (
    EXIT_BIND,
    EXIT_ERROR,
    EXIT_PARSE,
    EXIT_SNAPSHOT,
    _ascii_bars,
    build_parser,
    main,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_lists_exactly_the_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        listed = out[out.index("{") + 1 : out.index("}")].split(",")
        assert sorted(listed) == sorted(
            ["table1", "fig3", "fig4", "fig5", "fig6", "demo", "run", "timeline",
             "explain", "advise", "check-snapshot", "metrics", "audit",
             "fleet-run", "fleet-status"]
        )
        # Throughput is measured by ``perf/run.py``; there is no driver
        # subcommand, and asking for one is a usage error.
        assert main(["replay"]) == EXIT_ERROR
        assert "invalid choice: 'replay'" in capsys.readouterr().err

    def test_fig6_burst_parsing(self):
        args = build_parser().parse_args(["fig6", "--bursts", "20,40"])
        assert args.bursts == "20,40"

    def test_explain_index_repeatable(self):
        args = build_parser().parse_args(
            ["explain", "select 1", "--index", "a.b", "--index", "c.d"]
        )
        assert args.index == ["a.b", "c.d"]


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "6,928,120" in out
        assert "244" in out

    def test_fig3(self, capsys):
        assert main(["fig3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "COLT" in out and "OFFLINE" in out
        assert "deviation after query 100" in out

    def test_fig6_custom_bursts(self, capsys):
        assert main(["fig6", "--bursts", "20"]) == 0
        out = capsys.readouterr().out
        assert "burst" in out

    def test_explain_seq_scan(self, capsys):
        sql = "select l_orderkey from lineitem_1 where l_shipdate = '1994-01-01'"
        assert main(["explain", sql]) == 0
        out = capsys.readouterr().out
        assert "SeqScan(lineitem_1)" in out

    def test_explain_with_hypothetical_index(self, capsys):
        sql = "select l_orderkey from lineitem_1 where l_shipdate = '1994-01-01'"
        assert main(["explain", sql, "--index", "lineitem_1.l_shipdate"]) == 0
        out = capsys.readouterr().out
        assert "IndexScan(ix_lineitem_1_l_shipdate" in out
        assert "used indexes" in out

    def test_explain_bad_sql_is_an_error(self, capsys):
        assert main(["explain", "selectt nope"]) == 2  # EXIT_PARSE
        assert "error:" in capsys.readouterr().err

    def test_explain_bad_index_spec(self, capsys):
        sql = "select l_orderkey from lineitem_1"
        assert main(["explain", sql, "--index", "bogus"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_explain_unknown_table_in_index(self, capsys):
        sql = "select l_orderkey from lineitem_1"
        assert main(["explain", sql, "--index", "zzz.yyy"]) == 1


class TestMoreCommands:
    def test_fig5(self, capsys):
        # The full fig5 run is fast enough for the test suite.
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "what-if calls per epoch" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "final configuration" in out


class TestTimeline:
    def test_stable_timeline(self, capsys):
        assert main(["timeline", "--workload", "stable", "--queries", "60"]) == 0
        out = capsys.readouterr().out
        assert "exec cost" in out
        assert "what-if calls" in out

    def test_timeline_workload_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["timeline", "--workload", "bogus"])


class TestExitCodes:
    """Failure classes map to distinct exit codes (no tracebacks)."""

    def test_parse_error_exit_code(self, capsys):
        assert main(["explain", "selectt nope"]) == EXIT_PARSE
        assert "parse error:" in capsys.readouterr().err

    def test_lex_error_exit_code(self, capsys):
        assert main(["explain", "select ~ from lineitem_1"]) == EXIT_PARSE

    def test_usage_error_exit_code(self, capsys):
        # argparse exits 2 on a usage error; the CLI reserves 2 for SQL
        # parse errors, so a usage error is the generic 1.
        assert main(["fleet-run", "--policy", "cost"]) == EXIT_ERROR
        assert main(["run", "--no-such-option"]) == EXIT_ERROR
        assert "invalid choice" in capsys.readouterr().err
        assert main(["explain", "selectt nope"]) == EXIT_PARSE

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "literal", ["\u00b2", "\u0663", "1\u0663", "-5 limit -5"],
        ids=["superscript-two", "arabic-three", "mixed-digits", "negative-limit"],
    )
    def test_literal_outside_the_dialect_exit_code(self, literal, capsys):
        # int() refuses the first and reads the second as 3; neither is a
        # literal of the dialect, and neither may surface as EXIT_ERROR.
        sql = f"select l_orderkey from lineitem_1 where l_orderkey = {literal}"
        assert main(["explain", sql]) == EXIT_PARSE
        assert "parse error:" in capsys.readouterr().err

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="int() converts any length before 3.11"
    )
    def test_overlong_integer_literal_exit_code(self, capsys):
        sql = "select l_orderkey from lineitem_1 where l_orderkey = " + "7" * 5000
        assert main(["explain", sql]) == EXIT_PARSE
        assert "parse error: integer literal too long" in capsys.readouterr().err

    def test_bind_error_exit_code(self, capsys):
        sql = "select no_such_column from lineitem_1"
        assert main(["explain", sql]) == EXIT_BIND
        assert "bind error:" in capsys.readouterr().err

    def test_text_that_is_no_date_exit_code(self, capsys):
        # A bare ValueError (EXIT_ERROR) before the binder named the column.
        sql = "select o_orderkey from orders_1 where o_orderdate = 'no date'"
        assert main(["explain", sql]) == EXIT_BIND
        assert "bind error: type error in predicate on orders_1.o_orderdate" in (
            capsys.readouterr().err
        )

    def test_snapshot_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("{ truncated")
        assert main(["check-snapshot", str(path)]) == EXIT_SNAPSHOT
        assert "snapshot error:" in capsys.readouterr().err

    def test_snapshot_version_skew_exit_code(self, capsys, tmp_path):
        import json

        path = tmp_path / "state.json"
        path.write_text(json.dumps({"version": 99}))
        assert main(["check-snapshot", str(path)]) == EXIT_SNAPSHOT

    def test_snapshot_negative_clock_exit_code(self, capsys, tmp_path):
        from repro.core import ColtTuner
        from repro.persist import save_json, snapshot_tuner
        from repro.workload import build_catalog

        snapshot = snapshot_tuner(ColtTuner(build_catalog()))
        snapshot["queries_seen"] = -1
        path = tmp_path / "state.json"
        save_json(path, snapshot)
        assert main(["check-snapshot", str(path)]) == EXIT_SNAPSHOT
        assert "queries_seen -1" in capsys.readouterr().err

    def test_generic_error_exit_code(self, capsys):
        sql = "select l_orderkey from lineitem_1"
        assert main(["explain", sql, "--index", "bogus"]) == EXIT_ERROR

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig6", "--bursts", "0"],
            ["fig6", "--bursts", "-5"],
            ["run", "--queries", "-3"],
            ["timeline", "--workload", "stable", "--queries", "0"],
            ["audit", "--queries", "0"],
            ["fleet-run", "--phase-length", "0", "--transition", "0"],
            ["fleet-run", "--transition", "-1"],
            ["advise", "--budget", "-3", "select l_orderkey from lineitem_1"],
        ],
    )
    def test_a_bad_size_is_a_clean_error(self, argv, capsys):
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_check_snapshot_happy_path(self, capsys, tmp_path):
        from repro.persist import save_json, snapshot_tuner
        from repro.core import ColtTuner
        from repro.workload import build_catalog

        path = tmp_path / "state.json"
        save_json(path, snapshot_tuner(ColtTuner(build_catalog())))
        assert main(["check-snapshot", str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "what-if budget" in out


class TestFleetCommands:
    FAST = [
        "fleet-run",
        "--replicas", "2",
        "--phase-length", "15",
        "--transition", "5",
        "--fleet-epoch", "10",
        "--seed", "3",
    ]

    def test_fleet_run_parsing_defaults(self):
        args = build_parser().parse_args(["fleet-run"])
        assert args.replicas == 3
        assert args.policy == "affinity"
        assert args.snapshot_dir is None

    def test_fleet_run_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet-run", "--policy", "random"])

    def test_fleet_run_rejects_retired_cost_policy(self):
        # What-if probe routing was retired; "cost" is no longer a choice.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet-run", "--policy", "cost"])

    def test_fleet_run_reports_per_replica_table(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "policy:   affinity (2 replicas, engine colt)" in out
        assert "fleet execution cost" in out
        assert "config divergence" in out

    def test_fleet_run_round_robin_policy(self, capsys):
        assert main(self.FAST + ["--policy", "round-robin"]) == 0
        assert "round-robin" in capsys.readouterr().out

    def test_fleet_run_client_policy(self, capsys):
        assert main(self.FAST + ["--policy", "client"]) == 0
        assert "policy:   client (2 replicas" in capsys.readouterr().out

    def test_fleet_run_saves_snapshot(self, capsys, tmp_path):
        target = tmp_path / "state"
        assert main(self.FAST + ["--snapshot-dir", str(target)]) == 0
        assert "fleet snapshot saved" in capsys.readouterr().out
        assert (target / "fleet.json").exists()
        assert (target / "replica-0.json").exists()

    def test_fleet_status_reads_snapshot(self, capsys, tmp_path):
        target = tmp_path / "state"
        assert main(self.FAST + ["--snapshot-dir", str(target)]) == 0
        capsys.readouterr()
        assert main(["fleet-status", str(target)]) == 0
        out = capsys.readouterr().out
        assert "fleet of 2" in out
        assert out.count(": OK") == 2

    def test_fleet_status_flags_tampered_replica(self, capsys, tmp_path):
        from repro.persist import load_json, save_json

        target = tmp_path / "state"
        assert main(self.FAST + ["--snapshot-dir", str(target)]) == 0
        snap = load_json(target / "replica-0.json")
        snap["whatif_budget"] = 424242
        save_json(target / "replica-0.json", snap)
        capsys.readouterr()
        assert main(["fleet-status", str(target)]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" in out

    def test_fleet_status_missing_dir_exit_code(self, capsys, tmp_path):
        assert main(["fleet-status", str(tmp_path / "nope")]) == EXIT_SNAPSHOT

    def test_fleet_run_report_has_no_rollout_summary(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        header = next(line for line in out.splitlines() if "exec cost" in line)
        assert header.split() == ["replica", "health", "queries", "|M|", "exec", "cost"]
        assert "rollouts:" not in out and "promoted:" not in out

    def test_fleet_status_text_has_no_quarantine_column(self, capsys, tmp_path):
        target = tmp_path / "state"
        assert main(self.FAST + ["--snapshot-dir", str(target)]) == 0
        capsys.readouterr()
        assert main(["fleet-status", str(target)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == [
            "replica", "engine", "health", "queries", "|M|", "snapshot",
        ]
        assert len(lines) == 4  # title, header, one row per replica
        assert "quarantined" not in "\n".join(lines)

    def test_fleet_run_has_no_guardrails_flag(self, capsys):
        assert main(self.FAST + ["--guardrails", "on"]) == EXIT_ERROR
        assert "unrecognized arguments: --guardrails on" in capsys.readouterr().err

    def test_fleet_status_json_document(self, capsys, tmp_path):
        target = tmp_path / "state"
        assert main(self.FAST + ["--snapshot-dir", str(target)]) == 0
        capsys.readouterr()
        assert main(["fleet-status", str(target), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {"directory", "policy", "queries_routed", "replicas"}
        assert len(document["replicas"]) == 2
        for entry in document["replicas"]:
            assert "quarantined" not in entry
            assert entry["integrity"] == "OK"


class TestRunCommand:
    FAST = ["run", "--queries", "30", "--seed", "2"]

    def test_run_parsing_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "stable"
        assert args.queries == 200
        assert args.metrics_out is None

    def test_run_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "bogus"])

    def test_run_prints_overhead_dashboard(self, capsys):
        assert main(self.FAST) == 0
        out = capsys.readouterr().out
        assert "what-if overhead dashboard" in out
        assert "within budget: yes" in out

    def test_run_writes_json_snapshot(self, capsys, tmp_path):
        from repro.obs.export import load_snapshot

        path = tmp_path / "m.json"
        assert main(self.FAST + ["--metrics-out", str(path)]) == 0
        assert "metrics snapshot written" in capsys.readouterr().out
        snapshot = load_snapshot(str(path))
        names = {f["name"] for f in snapshot["metrics"]}
        assert "colt_queries_total" in names
        assert snapshot["overhead"], "expected per-epoch overhead rows"
        for row in snapshot["overhead"]:
            assert row["spent"] <= row["granted"] <= row["requested"]

    def test_run_writes_prometheus_by_extension(self, capsys, tmp_path):
        path = tmp_path / "m.prom"
        assert main(self.FAST + ["--metrics-out", str(path)]) == 0
        text = path.read_text()
        assert "# TYPE colt_queries_total counter" in text

    def test_run_unwritable_metrics_path_is_clean_error(self, capsys, tmp_path):
        path = tmp_path / "missing-dir" / "m.json"
        assert main(self.FAST + ["--metrics-out", str(path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


#: The per-name span aggregates documents written before the span
#: tracer was deleted carried; they still load and render.
SPANS_SECTION = {
    "epoch_close": {"count": 3, "max_seconds": 0.002, "total_seconds": 0.005},
    "query": {"count": 30, "max_seconds": 0.001, "total_seconds": 0.004},
}


class TestMetricsCommand:
    @pytest.fixture(params=["fresh", "with-spans"])
    def snapshot_file(self, request, tmp_path):
        from repro.obs.export import load_snapshot

        path = tmp_path / "m.json"
        assert (
            main(["run", "--queries", "30", "--seed", "2", "--metrics-out", str(path)])
            == 0
        )
        doc = load_snapshot(str(path))
        assert set(doc) == {"format", "version", "metrics", "overhead"}
        if request.param == "with-spans":
            path.write_text(json.dumps({**doc, "spans": SPANS_SECTION}))
            assert load_snapshot(str(path))["spans"] == SPANS_SECTION
        return path

    def test_metrics_parsing_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.format == "prom"
        assert args.from_file is None

    def test_metrics_from_file_prom(self, capsys, snapshot_file):
        capsys.readouterr()
        assert main(["metrics", "--from", str(snapshot_file)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE colt_epochs_total counter" in out

    def test_metrics_from_file_json(self, capsys, snapshot_file):
        capsys.readouterr()
        assert main(["metrics", "--from", str(snapshot_file), "--format", "json"]) == 0
        rendered = json.loads(capsys.readouterr().out)
        assert rendered == json.loads(snapshot_file.read_text())

    def test_metrics_from_file_text_renders_overhead(self, capsys, snapshot_file):
        capsys.readouterr()
        assert main(["metrics", "--from", str(snapshot_file), "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "grant" in out and "spent" in out

    def test_metrics_missing_file_is_clean_error(self, capsys, tmp_path):
        assert main(["metrics", "--from", str(tmp_path / "nope.json")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_metrics_foreign_json_is_clean_error(self, capsys, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "not-metrics"}')
        assert main(["metrics", "--from", str(path)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_metrics_truncated_json_is_clean_error(self, capsys, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"format": "colt-met')
        assert main(["metrics", "--from", str(path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "not valid JSON" in err


class TestQuarantinedSnapshots:
    def test_check_snapshot_on_quarantined_file(self, capsys, tmp_path):
        from repro.persist import load_or_quarantine

        path = tmp_path / "state.json"
        path.write_text("{ torn")
        assert load_or_quarantine(path) is None
        quarantined = tmp_path / "state.json.corrupt"
        assert quarantined.exists()
        assert main(["check-snapshot", str(quarantined)]) == EXIT_SNAPSHOT
        err = capsys.readouterr().err
        assert "snapshot error:" in err
        assert "Traceback" not in err

    def test_check_snapshot_on_missing_original(self, capsys, tmp_path):
        assert main(["check-snapshot", str(tmp_path / "state.json")]) == EXIT_SNAPSHOT
        assert "error:" in capsys.readouterr().err


class TestFleetMetricsOut:
    def test_fleet_run_writes_replica_labeled_snapshot(self, capsys, tmp_path):
        from repro.obs.export import load_snapshot

        path = tmp_path / "fleet.json"
        fast = TestFleetCommands.FAST + ["--metrics-out", str(path)]
        assert main(fast) == 0
        assert "metrics snapshot written" in capsys.readouterr().out
        snapshot = load_snapshot(str(path))
        by_name = {f["name"]: f for f in snapshot["metrics"]}
        assert "fleet_queries_routed_total" in by_name
        colt = by_name["colt_queries_total"]
        replicas = {s["labels"]["replica"] for s in colt["samples"]}
        assert replicas == {"0", "1"}


class TestAsciiBars:
    def test_empty(self):
        assert "no data" in _ascii_bars("x", [])

    def test_monotone_heights(self):
        line = _ascii_bars("x", [1.0, 2.0, 4.0, 8.0])
        # Higher values render as taller (later-in-alphabet) blocks.
        bars = line.split()[1]
        assert bars[0] <= bars[-1]

    def test_peak_annotated(self):
        assert "8" in _ascii_bars("x", [8.0])
