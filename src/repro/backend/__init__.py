"""Pluggable DBMS backends behind the what-if interface.

See :mod:`repro.backend.base` for the protocol and ``docs/BACKENDS.md``
for the workflow.
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "base": (
            "Backend",
            "BackendError",
            "TraceMissError",
            "WhatIfSession",
        ),
        "local": ("LocalBackend",),
        "trace": (
            "CostTrace",
            "CostTraceRecorder",
            "ReplayPlan",
            "TraceBackend",
            "trace_key",
        ),
    },
)
