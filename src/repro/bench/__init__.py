"""Benchmark harness: experiment drivers for every table and figure.

``harness`` runs COLT and OFFLINE over a workload on separate catalogs
and collects per-query ledgers (per-epoch series are read off the
tuner's epoch log, as ``tracing``'s traces are); ``figures`` turns those
ledgers into the exact series each figure of the paper plots; ``scenario`` is
the store-backed scoreboard (observed execution cost of a tuner, or of no
tuning, over an adversarial scenario).
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "harness": ("ColtRun", "OfflineRun", "run_colt", "run_offline"),
        "figures": (
            "figure3_stable",
            "figure4_shifting",
            "figure5_overhead",
            "figure6_noise",
            "table1_dataset",
        ),
    },
)
