"""Tests for the ``--engine`` flag across run/timeline/fleet-run."""

import pytest

from repro.cli import ENGINE_CHOICES, EXIT_ERROR, build_parser, main

FAST_RUN = ["run", "--queries", "30", "--seed", "2"]


class TestParsing:
    def test_engine_choices(self):
        assert ENGINE_CHOICES == ("colt", "bandit", "offline", "continuous")

    @pytest.mark.parametrize("command", ["run", "timeline", "fleet-run"])
    def test_engine_defaults_to_colt(self, command):
        assert build_parser().parse_args([command]).engine == "colt"

    @pytest.mark.parametrize("command", ["run", "timeline", "fleet-run"])
    def test_unknown_engine_rejected_by_argparse(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--engine", "quantum"])

    def test_run_accepts_all_four_engines(self):
        for engine in ENGINE_CHOICES:
            args = build_parser().parse_args(["run", "--engine", engine])
            assert args.engine == engine


class TestRunEngines:
    def test_run_bandit_reports_observation_dashboard(self, capsys):
        assert main(FAST_RUN + ["--engine", "bandit"]) == 0
        out = capsys.readouterr().out
        assert "engine:   bandit" in out
        assert "observation overhead dashboard" in out

    def test_run_colt_keeps_whatif_dashboard(self, capsys):
        assert main(FAST_RUN) == 0
        out = capsys.readouterr().out
        assert "what-if overhead dashboard" in out

    def test_run_offline(self, capsys):
        assert main(FAST_RUN + ["--engine", "offline"]) == 0
        out = capsys.readouterr().out
        assert "offline" in out

    def test_run_continuous(self, capsys):
        assert main(FAST_RUN + ["--engine", "continuous"]) == 0

    def test_run_bandit_writes_metrics(self, capsys, tmp_path):
        from repro.obs.export import load_snapshot

        path = tmp_path / "m.json"
        assert (
            main(FAST_RUN + ["--engine", "bandit", "--metrics-out", str(path)])
            == 0
        )
        names = {f["name"] for f in load_snapshot(str(path))["metrics"]}
        assert "bandit_queries_total" in names

    def test_timeline_bandit_renders_rounds(self, capsys):
        assert (
            main(
                [
                    "timeline",
                    "--workload",
                    "stable",
                    "--queries",
                    "40",
                    "--engine",
                    "bandit",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "(engine: bandit)" in out
        assert "exec cost" in out
        assert "final materialized" in out


class TestErrorPaths:
    @pytest.mark.parametrize("engine", ["offline", "continuous"])
    def test_timeline_rejects_one_shot_engines(self, capsys, engine):
        assert main(["timeline", "--engine", engine]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error:" in err
        assert "epoch-loop" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("engine", ["offline", "continuous"])
    def test_fleet_run_rejects_one_shot_engines(self, capsys, engine):
        assert main(["fleet-run", "--engine", engine]) == EXIT_ERROR
        assert "epoch-loop" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["bandit", "offline"])
    def test_gain_cache_requires_colt(self, capsys, engine):
        assert (
            main(FAST_RUN + ["--engine", engine, "--gain-cache", "on"])
            == EXIT_ERROR
        )
        assert "requires --engine colt" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["offline", "continuous"])
    def test_metrics_out_requires_online_engine(self, capsys, tmp_path, engine):
        path = tmp_path / "m.json"
        assert (
            main(FAST_RUN + ["--engine", engine, "--metrics-out", str(path)])
            == EXIT_ERROR
        )
        err = capsys.readouterr().err
        assert "--metrics-out" in err
        assert not path.exists()


class TestFleetAndSnapshots:
    FAST_FLEET = [
        "fleet-run",
        "--replicas",
        "2",
        "--phase-length",
        "10",
        "--transition",
        "4",
        "--fleet-epoch",
        "10",
    ]

    def test_fleet_run_bandit_engine(self, capsys, tmp_path):
        snap_dir = tmp_path / "fleet"
        assert (
            main(
                self.FAST_FLEET
                + ["--engine", "bandit", "--snapshot-dir", str(snap_dir)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bandit" in out
        assert (snap_dir / "fleet.json").exists()

        assert main(["fleet-status", str(snap_dir)]) == 0
        status = capsys.readouterr().out
        assert "bandit" in status

        assert main(["check-snapshot", str(snap_dir / "replica-0.json")]) == 0
        assert "engine bandit" in capsys.readouterr().out

    def test_fleet_metrics_carry_bandit_families(self, capsys, tmp_path):
        from repro.obs.export import load_snapshot

        path = tmp_path / "m.json"
        assert (
            main(
                self.FAST_FLEET
                + ["--engine", "bandit", "--metrics-out", str(path)]
            )
            == 0
        )
        names = {f["name"] for f in load_snapshot(str(path))["metrics"]}
        assert "bandit_queries_total" in names
        assert "bandit_reward_samples_total" in names
