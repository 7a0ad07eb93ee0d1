"""CLI coverage for ``--backend`` / trace record-replay / ``--engine``.

The round-trip test records a cost trace from a live run, replays it
with ``--backend trace``, and requires the two runs' reports to be
identical, on a short stable run and on the Figure-4 shifting workload
at its default size.
"""

import pytest

from repro.cli import EXIT_ERROR, EXIT_SNAPSHOT, build_parser, main

FAST_RUN = ["run", "--queries", "30", "--seed", "2"]


class TestParsing:
    def test_backend_defaults_to_local(self):
        args = build_parser().parse_args(["run"])
        assert args.backend == "local"
        assert args.record_trace is None
        assert args.trace is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--backend", "oracle"])

    def test_check_snapshot_engine_choices(self):
        args = build_parser().parse_args(
            ["check-snapshot", "x.json", "--engine", "bandit"]
        )
        assert args.engine == "bandit"


class TestRecordReplayRoundTrip:
    @pytest.mark.parametrize(
        "run",
        [FAST_RUN, ["run", "--workload", "shifting"]],
        ids=["stable", "shifting"],
    )
    def test_replay_report_is_identical_to_live(self, capsys, tmp_path, run):
        trace = tmp_path / "costs.json"
        assert main(run + ["--record-trace", str(trace)]) == 0
        recorded = capsys.readouterr().out
        assert "cost trace recorded" in recorded
        assert trace.exists()

        assert main(run) == 0
        live = capsys.readouterr().out

        assert main(run + ["--backend", "trace", "--trace", str(trace)]) == 0
        replayed = capsys.readouterr().out
        assert replayed == live

    def test_bandit_engine_records_and_replays(self, capsys, tmp_path):
        trace = tmp_path / "costs.json"
        bandit = FAST_RUN + ["--engine", "bandit"]
        assert main(bandit + ["--record-trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(bandit) == 0
        live = capsys.readouterr().out
        assert (
            main(bandit + ["--backend", "trace", "--trace", str(trace)]) == 0
        )
        assert capsys.readouterr().out == live

    def test_trace_meta_describes_the_run(self, tmp_path, capsys):
        from repro.backend.trace import CostTrace

        trace = tmp_path / "costs.json"
        assert main(FAST_RUN + ["--record-trace", str(trace)]) == 0
        capsys.readouterr()
        loaded = CostTrace.load(trace)
        assert loaded.meta["workload"] == "stable"
        assert loaded.meta["seed"] == 2
        assert loaded.meta["engine"] == "colt"
        assert len(loaded) > 0


class TestBackendFlagErrors:
    def test_trace_backend_requires_trace_path(self, capsys):
        assert main(FAST_RUN + ["--backend", "trace"]) == EXIT_ERROR
        assert "requires --trace" in capsys.readouterr().err

    def test_record_trace_requires_local_backend(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        trace.write_text("{}")
        assert (
            main(
                FAST_RUN
                + [
                    "--backend",
                    "trace",
                    "--trace",
                    str(trace),
                    "--record-trace",
                    str(tmp_path / "out.json"),
                ]
            )
            == EXIT_ERROR
        )
        assert "--record-trace requires" in capsys.readouterr().err

    def test_stray_trace_flag_rejected(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        trace.write_text("{}")
        assert main(FAST_RUN + ["--trace", str(trace)]) == EXIT_ERROR
        assert "--backend trace" in capsys.readouterr().err

    def test_hypopg_backend_is_a_usage_error(self, capsys):
        assert main(FAST_RUN + ["--backend", "hypopg"]) == EXIT_ERROR
        assert "invalid choice: 'hypopg'" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["offline", "continuous"])
    def test_baseline_engines_price_locally(self, capsys, engine, tmp_path):
        trace = tmp_path / "t.json"
        trace.write_text("{}")
        assert (
            main(
                FAST_RUN
                + [
                    "--engine",
                    engine,
                    "--backend",
                    "trace",
                    "--trace",
                    str(trace),
                ]
            )
            == EXIT_ERROR
        )
        assert "on-line engine" in capsys.readouterr().err

    def test_trace_miss_is_a_backend_error(self, capsys, tmp_path):
        # A recording that holds none of the run's probes: the replay's
        # first pricing request raises TraceMissError.
        from repro.backend.trace import CostTrace

        trace = tmp_path / "empty.json"
        CostTrace().save(trace)
        assert (
            main(FAST_RUN + ["--backend", "trace", "--trace", str(trace)])
            == EXIT_ERROR
        )
        err = capsys.readouterr().err
        assert "backend error" in err
        assert "replay diverged" in err
        assert "Traceback" not in err

    def test_corrupt_trace_file_reported(self, capsys, tmp_path):
        trace = tmp_path / "bad.json"
        trace.write_text('{"format": "something-else"}')
        assert (
            main(FAST_RUN + ["--backend", "trace", "--trace", str(trace)])
            == EXIT_ERROR
        )
        assert "error" in capsys.readouterr().err


class TestCheckSnapshotEngine:
    def _write(self, tmp_path, engine):
        from repro.core import ColtConfig
        from repro.engines import engine_spec
        from repro.persist import save_json, snapshot_any
        from repro.workload import build_catalog

        tuner = engine_spec(engine).build(
            build_catalog(), ColtConfig(storage_budget_pages=6000.0)
        )
        path = tmp_path / f"{engine}.json"
        save_json(path, snapshot_any(tuner))
        return path

    @pytest.mark.parametrize("engine", ["colt", "bandit"])
    def test_matching_engine_passes(self, capsys, tmp_path, engine):
        path = self._write(tmp_path, engine)
        assert main(["check-snapshot", str(path), "--engine", engine]) == 0
        assert f"engine {engine}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("written", "requested"), [("colt", "bandit"), ("bandit", "colt")]
    )
    def test_mismatch_fails_with_snapshot_exit(
        self, capsys, tmp_path, written, requested
    ):
        path = self._write(tmp_path, written)
        assert (
            main(["check-snapshot", str(path), "--engine", requested])
            == EXIT_SNAPSHOT
        )
        err = capsys.readouterr().err
        assert "engine mismatch" in err
        assert "Traceback" not in err
