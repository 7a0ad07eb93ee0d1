"""Decision diffs: what moved between a pinned recording and a new run.

Each decision-pinned test compares a run of today's code with a file
recorded earlier (``tests/pinned.py`` lists them).  The comparisons
return a :class:`Diff` instead of asserting: every difference beyond
the test's tolerance, phrased as the decisions that moved (the first
divergent epoch, what entered or left ``M`` / ``H``, the cost and
what-if deltas), and a count of the floats that moved within it.  A
pinned test asserts that ``Diff.lines`` is empty;
``tools/regen_pinned.py`` prints the same lines for a re-recording.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence

import pytest

#: Divergent epochs (or paths) a diff spells out; the rest are counted.
SHOWN = 10
#: The golden traces' float tolerance: their floats pass through JSON.
GOLDEN_REL = 1e-12
#: The ``colt_faults`` columns of a close row, after ``repr(r)``.
RESILIENCE_FIELDS = ("build failures", "recovered", "abandoned")


class Diff:
    """Differences beyond a test's tolerance, and floats moved within it.

    Attributes:
        lines: One human-readable difference each; empty means the
            test passes.
        tolerated: Floats that differ from the recording but lie within
            the test's tolerance.
    """

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.tolerated = 0

    def near(self, got, want, rel: float) -> bool:
        """``got == pytest.approx(want, rel=rel)``; a move within it is counted."""
        if got == want:
            return True
        if got == pytest.approx(want, rel=rel):
            self.tolerated += 1
            return True
        return False

    def add(self, label: str, other: "Diff") -> None:
        """Take ``other``'s lines under ``label``, and its tolerated count."""
        self.lines += [f"{label}: {line}" for line in other.lines]
        self.tolerated += other.tolerated

    def report(self) -> str:
        """``identical`` (and how many floats moved within tolerance), or the lines."""
        if self.lines:
            return "\n".join(["differs"] + ["  " + line for line in self.lines])
        if self.tolerated:
            return f"identical ({self.tolerated} floats moved within the test's tolerance)"
        return "identical"


def names(field: str, got: Sequence[str], want: Sequence[str]) -> Optional[str]:
    """``field +entered -left`` for two name lists, or ``None`` when equal."""
    if got == want:
        return None
    moves = [f"+{n}" for n in got if n not in want] + [f"-{n}" for n in want if n not in got]
    return f"{field} " + (" ".join(moves) if moves else f"reordered {list(want)} -> {list(got)}")


def value(field: str, got, want) -> Optional[str]:
    """``field old -> new``, or ``None`` when equal."""
    return None if got == want else f"{field} {want!r} -> {got!r}"


def walk_epochs(
    diff: Diff,
    got: Sequence,
    want: Sequence,
    changes: Callable[[object, object], List[Optional[str]]],
    label: Callable[[int, object], object] = lambda i, row: i,
) -> None:
    """Pair epochs in order; ``changes(got, want)`` names what moved in one.

    Adds the first divergent epoch, how many epochs differ, and the
    first :data:`SHOWN` of them field by field.
    """
    if len(got) != len(want):
        diff.lines.append(f"epochs {len(want)} -> {len(got)}")
    moved = []
    for i, (now, then) in enumerate(zip(got, want)):
        fields = [change for change in changes(now, then) if change]
        if fields:
            moved.append((label(i, then), fields))
    if not moved:
        return
    compared = min(len(got), len(want))
    diff.lines.append(
        f"first divergent epoch {moved[0][0]} ({len(moved)} of {compared} epochs differ)"
    )
    for where, fields in moved[:SHOWN]:
        diff.lines.append(f"epoch {where}: " + "; ".join(fields))
    if len(moved) > SHOWN:
        diff.lines.append(f"... and {len(moved) - SHOWN} more divergent epochs")


def totals(cost_got: float, cost_want: float, what: str, got: int, want: int) -> List[str]:
    """The total-cost and what-if deltas of a run that moved."""
    delta = cost_got - cost_want
    share = f", {delta / cost_want:+.4%}" if cost_want else ""
    return [
        f"total cost {cost_want!r} -> {cost_got!r} ({delta:+.6g}{share})",
        f"{what} {want} -> {got} ({got - want:+d})",
    ]


def trace_diff(got, want) -> Diff:
    """The golden traces' comparison of two :class:`~repro.bench.tracing.TunerTrace`.

    Engine, config, every decision (``M``, added, dropped, ``H``, what-if
    calls used and granted) and ``total_whatif`` exactly; the improvement
    ratio, the epoch's costs and the run's total cost within
    :data:`GOLDEN_REL`.
    """
    diff = Diff()
    if got.engine != want.engine:
        diff.lines.append(value("engine", got.engine, want.engine))
    if got.config != want.config:
        now, then = dataclasses.asdict(got.config), dataclasses.asdict(want.config)
        keys = sorted(k for k in now.keys() | then.keys() if now.get(k) != then.get(k))
        diff.lines.append(
            "config " + (", ".join(value(k, now.get(k), then.get(k)) for k in keys) or "type")
        )

    def changes(now, then):
        return [
            names("M", now.materialized, then.materialized),
            names("added", now.added, then.added),
            names("dropped", now.dropped, then.dropped),
            names("H", now.hot, then.hot),
            value("what-if used", now.whatif_used, then.whatif_used),
            value("granted", now.budget_granted, then.budget_granted),
            _float(diff, "r", now.improvement_ratio, then.improvement_ratio, GOLDEN_REL),
            _float(diff, "execution cost", now.execution_cost, then.execution_cost, GOLDEN_REL),
            _float(diff, "total cost", now.total_cost, then.total_cost, GOLDEN_REL),
        ]

    walk_epochs(diff, got.epochs, want.epochs, changes, lambda i, then: then.epoch)
    cost_moved = not diff.near(got.total_cost, want.total_cost, GOLDEN_REL)
    if diff.lines or cost_moved or got.total_whatif != want.total_whatif:
        diff.lines += totals(
            got.total_cost, want.total_cost, "what-if calls", got.total_whatif, want.total_whatif
        )
    return diff


def close_diff(got_rows, got_total: str, want_rows, want_total: str, rel=None) -> Diff:
    """The close-identity comparison of one scenario's rows.

    A row is ``[materialize, drop, hot, whatif_budget, repr(r)]``, in
    ``colt_faults`` followed by the three resilience lists; the total is
    the ``repr`` of the summed ``total_cost``.  Decisions and the total
    compare exactly; ``r`` by ``repr`` when ``rel`` is ``None``, else as
    floats within ``rel``.  The rows hold a boundary's changes, not
    ``M``.
    """
    diff = Diff()

    def changes(now, then):
        found = [names(f, now[i], then[i]) for i, f in enumerate(("added", "dropped", "H"))]
        found.append(value("granted", now[3], then[3]))
        if rel is None:
            found.append(value("r", now[4], then[4]))
        else:
            found.append(_float(diff, "r", float(now[4]), float(then[4]), rel))
        if now[5:] != then[5:]:
            found += [names(*triple) for triple in zip(RESILIENCE_FIELDS, now[5:], then[5:])]
            found.append(value("columns", len(now), len(then)))
        return found

    walk_epochs(diff, got_rows, want_rows, changes)
    if diff.lines or got_total != want_total:
        diff.lines += totals(
            float(got_total),
            float(want_total),
            "what-if granted",
            sum(row[3] for row in got_rows),
            sum(row[3] for row in want_rows),
        )
    return diff


def json_diff(got, want, rel=None) -> Diff:
    """Two JSON documents, by path: exactly (``==``), or floats within ``rel``."""
    diff = Diff()
    paths: List[str] = []
    _walk(diff, paths, got, want, "", rel)
    diff.lines += paths[:SHOWN]
    if len(paths) > SHOWN:
        diff.lines.append(f"... and {len(paths) - SHOWN} more differing fields")
    return diff


def _walk(diff: Diff, paths: List[str], got, want, path: str, rel) -> None:
    if rel is None and got == want:
        return
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            paths.append(names(f"{path or '.'} keys", list(got), list(want)))
        for key in want:
            if key in got:
                _walk(diff, paths, got[key], want[key], f"{path}.{key}", rel)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            paths.append(value(f"{path} length", len(got), len(want)))
        for i, (now, then) in enumerate(zip(got, want)):
            _walk(diff, paths, now, then, f"{path}[{i}]", rel)
    elif rel is not None and isinstance(want, float):
        if not diff.near(got, want, rel):
            paths.append(value(path, got, want))
    elif got != want:
        paths.append(value(path or ".", got, want))


def _float(diff: Diff, field: str, got: float, want: float, rel: float) -> Optional[str]:
    return None if diff.near(got, want, rel) else value(field, got, want)
