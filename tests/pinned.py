"""The decision-pinned artifacts: one recorder and one comparison each.

A pinned artifact is a file a test holds today's code to, decision by
decision: the two golden traces, the close, metric and audit
identities, and the ``drift`` entry of ``BENCH_bandit.json``.  Each row
of :data:`TABLE` names its file, a recorder that returns the exact text
the file holds -- built from the code path the file's test reads -- and
that test's comparison, which returns a
:class:`~tests.decision_diff.Diff` instead of asserting.
``tools/regen_pinned.py`` drives both.

The ``tests/data/parent_*snapshot.json`` restore fixtures are not here:
they are by-hand copies made on older commits, and nothing re-records
them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import pathlib
import tempfile
from typing import Callable, Sequence

from repro.bench.tracing import TunerTrace

from benchmarks import test_bandit_regret as regret
from tests.bench import test_golden_trace as golden
from tests.bench import test_scenario as scenario
from tests.core import test_close_identity as closes
from tests.decision_diff import Diff, json_diff, trace_diff
from tests.guardrails import test_cli as audit
from tests.obs import test_metrics_identity as metrics

@dataclasses.dataclass(frozen=True)
class Pinned:
    """One decision-pinned artifact.

    Attributes:
        name: What ``--only`` calls it.
        path: The file.
        record: ``record(current, parts)`` -> the file's new text, from
            its current text and the ``parts`` to re-record (every part
            when empty; the others are kept as recorded).
        compare: ``compare(new, old)`` -> the test's :class:`Diff` of
            two texts of the file.
        parts: Names ``--only`` may pick inside the file.
    """

    name: str
    path: pathlib.Path
    record: Callable[[str, Sequence[str]], str]
    compare: Callable[[str, str], Diff]
    parts: Sequence[str] = ()


def _trace(engine):
    return lambda current, parts: golden.traced_run(engine).to_json(indent=2) + "\n"


def _trace_compare(new: str, old: str) -> Diff:
    return trace_diff(TunerTrace.from_json(new), TunerTrace.from_json(old))


def _close_record(current: str, parts: Sequence[str]) -> str:
    recorded = {}
    if parts:
        recorded = {
            name: (run["epochs"], run["total_cost"])
            for name, run in json.loads(current).items()
        }
    recorded.update((name, closes.SCENARIOS[name]()) for name in parts or closes.SCENARIOS)
    return closes.dump({name: recorded[name] for name in closes.SCENARIOS})


def _close_compare(new: str, old: str) -> Diff:
    now, then = json.loads(new), json.loads(old)
    diff = Diff()
    for name in sorted(now.keys() | then.keys()):
        if name not in now or name not in then:
            diff.lines.append(f"{name}: {'new' if name in now else 'gone'}")
            continue
        run = now[name]["epochs"], now[name]["total_cost"]
        diff.add(name, closes.differences(name, run, then[name]))
    return diff


def _metrics_record(current, parts) -> str:
    return metrics.dump(
        {name: metrics._comparable(run()) for name, run in metrics.SCENARIOS.items()}
    )


def _by_run(differences):
    """A comparison of JSON objects keyed by run name, one run at a time."""

    def compare(new: str, old: str) -> Diff:
        now, then = json.loads(new), json.loads(old)
        diff = Diff()
        if now.keys() != then.keys():
            diff.lines.append(f"runs {sorted(then)} -> {sorted(now)}")
        for name in [name for name in then if name in now]:
            diff.add(name, differences(now[name], then[name]))
        return diff

    return compare


def _audit_record(current, parts) -> str:
    documents = {}
    with tempfile.TemporaryDirectory() as directory:
        for name in audit.AUDIT_RUNS:
            with contextlib.redirect_stdout(io.StringIO()):
                code, documents[name] = audit.run_audit(name, pathlib.Path(directory))
            if code != 0:
                raise RuntimeError(f"repro audit ({name}) exited {code}")
    return json.dumps(documents, indent=1, sort_keys=True) + "\n"


def _drift_record(current: str, parts) -> str:
    document = json.loads(current)
    document["drift"] = regret.scenario_payload(regret.scenario_arms("drift")[0])
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def _drift_compare(new: str, old: str) -> Diff:
    now, then = (json.loads(text)["drift"]["arms"] for text in (new, old))
    diff = Diff()
    for engine, arm in then.items():
        diff.add(engine, scenario.arm_differences(now[engine], arm))
    return diff


TABLE = (
    Pinned("golden_trace", golden.GOLDEN_PATH, _trace("colt"), _trace_compare),
    Pinned("golden_bandit_trace", golden.GOLDEN_BANDIT_PATH, _trace("bandit"), _trace_compare),
    Pinned(
        "close_identity",
        closes.DATA_PATH,
        _close_record,
        _close_compare,
        parts=tuple(closes.SCENARIOS),
    ),
    Pinned("metrics_identity", metrics.DATA_PATH, _metrics_record, _by_run(metrics.differences)),
    Pinned("audit_identity", audit.AUDIT_PATH, _audit_record, _by_run(json_diff)),
    Pinned("drift", scenario.BENCH_FILE, _drift_record, _drift_compare),
)
