"""How fast the host is running right now.

The sandbox this benchmark runs in changes speed under the guest's feet:
for minutes, sometimes an hour, at a time everything in the guest -- this
probe, the interpreter start of a set-up child, every workload -- takes
1.2 to 1.5 times as long as it does otherwise, with CPU time rising in
step with wall time, so nothing in the guest can see why.  Two sets of
runs of one commit, half an hour apart, then differ by more than any
bound the benchmark may set (perf/README.md has the measurements).

:func:`slowdown` times a fixed piece of interpreter work that shares no
code with the program under test and divides by what that work takes on
this host at full speed.  The driver takes a reading just before and just
after every timed block and every set-up child and divides the times it
measured by the mean of the two: a time is reported as what it would have
been with the host at reference speed.  The times as measured stay in the
pass record beside each block's reading.
"""

from __future__ import annotations

import time

#: Seconds one pass of the reference work takes on this benchmark's host
#: at full speed.  A constant, not a measurement of the run: a whole run
#: can sit inside a slow episode and would otherwise calibrate against
#: itself.  On another host every reported time scales by one factor.
REFERENCE_S = 0.00125

#: Passes per reading (10 to 16 ms): slow and fast alternate within
#: milliseconds during an episode, and one pass would catch either.
PASSES = 8


def slowdown() -> float:
    """Mean time of ``PASSES`` passes of the reference work over ``REFERENCE_S``."""
    started = time.perf_counter()
    for _ in range(PASSES):
        slots: dict = {}
        acc = 0.0
        for i in range(10000):
            slots[i & 1023] = acc
            acc += i * 0.5
            if i & 7 == 0:
                acc -= slots.get(i & 511, 0.0)
        sorted(slots.values())
    return (time.perf_counter() - started) / (PASSES * REFERENCE_S)
