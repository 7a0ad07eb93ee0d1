#!/usr/bin/env python
"""CI gate: validate a ``BENCH_throughput.json`` replay report.

Structural checks (always enforced):

* the report carries a ``serial`` mode with positive QPS;
* every mode reports finite, ordered latency percentiles
  (p50 <= p95 <= p99) whenever it observed any events.

Speedup gate:

* ``workers`` must reach ``--workers-min`` (default 1.4x) times the
  serial QPS -- but only when the report's ``meta.cpu_cores`` shows the
  measuring host had at least 2 cores.  On a single-core host worker
  processes time-slice one CPU and can never beat serial wall-clock;
  the gate prints a SKIP instead of failing a number the hardware makes
  unreachable.  CI runners have multiple cores, so the gate is enforced
  there.

Modes the gate does not know (the ``batched`` row of reports written
before the replay memo became the serial path) only get the percentile
checks.

Usage:
    python tools/check_throughput.py BENCH_throughput.json
    python tools/check_throughput.py report.json --workers-min 1.4
"""

import argparse
import json
import math
import sys

PERCENTILES = ("p50", "p95", "p99")


def _fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def check_percentiles(mode, payload):
    """Percentiles must be present, finite, and ordered. Returns error or None."""
    latency = payload.get("latency")
    if not isinstance(latency, dict):
        return f"mode {mode!r} has no latency summary"
    if payload.get("events", 0) <= 0:
        return None
    values = []
    for name in PERCENTILES:
        value = latency.get(name)
        if value is None:
            return f"mode {mode!r} is missing latency {name}"
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"mode {mode!r} latency {name} is not finite: {value!r}"
        if value < 0:
            return f"mode {mode!r} latency {name} is negative: {value!r}"
        values.append(value)
    if not (values[0] <= values[1] <= values[2]):
        return f"mode {mode!r} percentiles are not ordered: {values}"
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="path to BENCH_throughput.json")
    parser.add_argument(
        "--workers-min",
        type=float,
        default=1.4,
        help="minimum workers/serial QPS ratio (default 1.4)",
    )
    args = parser.parse_args(argv)

    with open(args.report) as handle:
        report = json.load(handle)

    modes = report.get("modes", {})
    serial = modes.get("serial")
    if serial is None:
        return _fail("report has no 'serial' mode to compare against")
    serial_qps = serial.get("qps", 0.0)
    if not serial_qps or serial_qps <= 0:
        return _fail(f"serial QPS is not positive: {serial_qps!r}")

    for mode, payload in sorted(modes.items()):
        error = check_percentiles(mode, payload)
        if error is not None:
            return _fail(error)
        print(
            f"{mode:>12}: {payload.get('qps', 0):>12,.0f} qps  "
            f"({payload.get('events', 0):,} events)"
        )

    cpu_cores = report.get("meta", {}).get("cpu_cores")
    status = 0

    workers = modes.get("workers")
    if workers is not None:
        ratio = workers["qps"] / serial_qps
        print(f"workers/serial: {ratio:.2f}x (gate {args.workers_min:.2f}x)")
        if cpu_cores is None:
            status = status or _fail(
                "report meta lacks cpu_cores; cannot tell whether the "
                "workers gate is meaningful on the measuring host"
            )
        elif cpu_cores < 2:
            print(
                f"SKIP: workers gate not enforced -- measuring host had "
                f"{cpu_cores} core(s); worker processes cannot beat serial "
                "wall-clock without real parallelism"
            )
        elif ratio < args.workers_min:
            status = _fail(
                f"workers speedup {ratio:.2f}x is below the "
                f"{args.workers_min:.2f}x gate ({cpu_cores} cores)"
            )
    else:
        print("workers mode absent: speedup gate not applicable")

    if status == 0:
        print("OK: throughput report passes all applicable gates")
    return status


if __name__ == "__main__":
    sys.exit(main())
