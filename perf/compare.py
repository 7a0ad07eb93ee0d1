"""Compare two suite results of ``perf/run.py``: A (before) against B (after).

    python3 perf/compare.py A.json B.json [--exact]

One row per workload x end-to-end metric.  Each metric's bound comes from
``BENCHMARK.json``: the share of A's median by which B's median may be
worse.  A row reads

* ``regressed``  -- B is worse than A by more than the bound;
* ``unresolved`` -- the spread of the passes is wider than the bound and
  the two sets of passes overlap, so the runs cannot tell (reported
  instead of ``ok`` or ``regressed``, never as "unchanged");
* ``ok``         -- otherwise.

``write_p95_us`` (``stable_htap``, where inserts run) gets the same
treatment with a 10 % bound, and ``failed_share`` may not rise at all.
When both files were made from one seed, the exact counts of the
deterministic prefix are compared too (``same`` / ``differs``); with
``--exact`` a difference fails the comparison, which is what "two runs
of one commit agree" means.

Exit status: 1 on any ``regressed`` row, a higher ``failed_share``, or
(with ``--exact``) differing counts; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

SPEC = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

#: Per-layer metrics that are bounded here as well, where they are not 0.
EXTRA_BOUNDS = {"write_p95_us": ("lower", 0.10)}

def judge(a: dict, b: dict, better: str, bound: float):
    """``(change, spread, status)`` for one metric on one workload.

    ``change`` is how much worse B's median is, as a share of A's
    (negative = better); ``spread`` the wider of the two pass ranges,
    as a share of its own median.
    """
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["median"] - a["median"]) / abs(a["median"])
    spread = max(
        (max(r["passes"]) - min(r["passes"])) / abs(r["median"]) for r in (a, b)
    )
    overlap = (
        min(a["passes"]) <= max(b["passes"]) and min(b["passes"]) <= max(a["passes"])
    )
    if change != 0.0 and spread > bound and overlap:
        return change, spread, "unresolved"
    return change, spread, "regressed" if change > bound else "ok"


def compare(a: dict, b: dict, exact: bool, out=sys.stdout) -> int:
    status = 0
    same_seed = a["seed"] == b["seed"] and a["scale"] == b["scale"]
    print(f"{'workload':14s} {'metric':24s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  status", file=out)
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:14s} missing from B", file=out)
            status = 1
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        rows = [
            (m["name"], wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]],
             m["better"], m["bound"])
            for m in SPEC["end_to_end"]
        ]
        for metric, (better, bound) in EXTRA_BOUNDS.items():
            if wa["per_layer"][metric]["median"] > 0:
                rows.append((metric, wa["per_layer"][metric], wb["per_layer"][metric],
                             better, bound))
        for metric, ra, rb, better, bound in rows:
            change, spread, verdict = judge(ra, rb, better, bound)
            if verdict == "regressed":
                status = 1
            print(f"{name:14s} {metric:24s} {ra['median']:12.6g} {rb['median']:12.6g} "
                  f"{change:+9.2%} {bound:6.1%} {spread:7.2%}  {verdict}", file=out)

        fa = wa["per_layer"]["failed_share"]["median"]
        fb = wb["per_layer"]["failed_share"]["median"]
        verdict = "regressed" if fb > fa else "ok"
        if fb > fa:
            status = 1
        print(f"{name:14s} {'failed_share':24s} {fa:12.6g} {fb:12.6g} "
              f"{'':>9s} {'none':>6s} {'':>7s}  {verdict}", file=out)

        if same_seed:
            # One record per round (sub-seed) of a pass.
            differing = sorted({
                key
                for ra, rb in zip(wa["exact"], wb["exact"])
                for key in ra
                if ra[key] != rb.get(key)
            })
            verdict = "differs: " + ", ".join(differing) if differing else "same"
            if differing and exact:
                status = 1
            print(f"{name:14s} {'exact counts':24s} {'':>12s} {'':>12s} "
                  f"{'':>9s} {'':>6s} {'':>7s}  {verdict}", file=out)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="suite result of the parent (before)")
    parser.add_argument("b", help="suite result of the change (after)")
    parser.add_argument("--exact", action="store_true",
                        help="fail when the prefix's exact counts differ (same seed)")
    args = parser.parse_args(argv)
    a = json.loads(pathlib.Path(args.a).read_text())
    b = json.loads(pathlib.Path(args.b).read_text())
    return compare(a, b, args.exact)


if __name__ == "__main__":
    sys.exit(main())
