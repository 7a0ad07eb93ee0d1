"""Resilience subsystem: fault injection, circuit breaking, retries.

A production on-line tuner must degrade gracefully rather than die: a
broken what-if interface demotes profiling to crude estimates (the
paper's level-1 statistics), a failed index build is retried with
backoff while the knapsack treats the index as unmaterialized, and a
corrupt snapshot is quarantined instead of crashing restore.  This
package holds the reusable mechanisms; the core pipeline wires them in.

Import layering: ``repro.core``/``repro.optimizer`` may import
``repro.resilience.errors``, ``breaker`` and ``retry`` (all
dependency-free); ``faults`` depends only on ``errors``.  Nothing here
imports the core, so there are no cycles.
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "breaker": ("BreakerState", "CircuitBreaker"),
        "errors": (
            "IndexBuildError",
            "InjectedBuildFault",
            "InjectedFault",
            "InjectedWhatIfFault",
            "WhatIfProbeError",
        ),
        "faults": ("SITES", "FaultInjector", "FaultPlan", "FaultSpec"),
        "retry": ("RetryPolicy",),
    },
)
