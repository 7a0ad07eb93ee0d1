#!/usr/bin/env python
"""Re-record the decision-pinned files and say what moved.

Every file a test holds the tuner's decisions to (``tests/pinned.py``:
the three golden traces, ``close_identity.json``,
``metrics_identity.json``, ``audit_identity.json`` and the ``drift``
entry of ``BENCH_bandit.json``) is re-recorded in memory through the
code path its test reads, and compared with the committed file by that
test's own comparison.  Each file reports ``identical`` (with the count
of floats that moved within the test's tolerance) or a decision diff:
the first divergent epoch, what entered or left ``M`` / ``H``, the
total-cost and what-if deltas, or the first differing family, arm or
field.  Nothing is written unless ``--write`` is given.

Usage:
    PYTHONPATH=src python tools/regen_pinned.py [--only NAME ...] [--write]

``--only`` takes file names (``golden_trace``, ``close_identity``, ...)
and close-identity scenario names (``colt_faults``, ...; the file's
other scenarios keep their recording).  Exits 0 when every file is
identical (or was written), 1 when one differs, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# The table lives in the test package, which imports from the repository root.
sys.path.insert(0, str(ROOT))

from tests.pinned import TABLE  # noqa: E402


def selection(only):
    """``(row, parts)`` per selected file; empty ``parts`` re-records all of it."""
    if only is None:
        return [(row, ()) for row in TABLE]
    known = {row.name for row in TABLE} | {part for row in TABLE for part in row.parts}
    unknown = [name for name in only if name not in known]
    if unknown:
        raise ValueError(f"unknown name(s) {unknown}; known: {sorted(known)}")
    chosen = []
    for row in TABLE:
        parts = tuple(part for part in row.parts if part in only)
        if row.name in only:
            chosen.append((row, ()))
        elif parts:
            chosen.append((row, parts))
    return chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="files or scenarios")
    parser.add_argument("--write", action="store_true", help="rewrite the files")
    args = parser.parse_args(argv)
    if args.write and sys.version_info >= (3, 12):
        # The COLT closes compare bit-exact below 3.12, where the files
        # were recorded; 3.12's compensated sum would move them.
        parser.error("--write records on CPython < 3.12 only")
    try:
        chosen = selection(args.only)
    except ValueError as exc:
        parser.error(str(exc))
    moved = False
    for row, parts in chosen:
        current = row.path.read_text()
        text = row.record(current, parts)
        diff = row.compare(text, current)
        print(f"{row.name}: {diff.report()}", flush=True)
        if args.write and text != current:
            row.path.write_text(text)
            print(f"  written: {row.path.name}")
        moved = moved or bool(diff.lines)
    return 1 if moved and not args.write else 0


if __name__ == "__main__":
    sys.exit(main())
