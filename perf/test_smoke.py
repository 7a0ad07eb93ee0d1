"""Smoke test of the benchmark itself: ``pytest perf/``.

Runs the whole suite at 2 % size (every workload, one untraced and one
traced pass) and checks that every metric ``BENCHMARK.json`` names comes
back with its unit, and that ``compare.py`` calls a result compared with
itself all-``ok``.
"""

import io
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE.parent))
from perf import compare  # noqa: E402


def test_suite_reports_every_metric_and_compares_clean(tmp_path):
    out = tmp_path / "suite.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "0", "--seconds", "0.3",
         "--repeats", "1", "--scale", "0.02", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout
    result = json.loads(out.read_text())

    assert list(result["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, entry in result["workloads"].items():
        assert entry["correct"], (name, entry["problems"])
        assert min(entry["attempted"]) >= 1 and entry["failed"] == [0]
        for group in ("end_to_end", "per_layer"):
            assert list(entry[group]) == [m["name"] for m in SPEC[group]]
            for metric in SPEC[group]:
                row = entry[group][metric["name"]]
                assert row["unit"] == metric["unit"]
                assert isinstance(row["median"], (int, float))
        assert all(row["median"] > 0 for row in entry["end_to_end"].values())

    table = io.StringIO()
    assert compare.compare(result, result, exact=True, out=table) == 0
    verdicts = [line.rsplit("  ", 1)[1] for line in table.getvalue().splitlines()[1:]]
    assert verdicts and set(verdicts) <= {"ok", "same"}, table.getvalue()
